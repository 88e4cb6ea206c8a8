// Sequential discrete-event engine with fiber actors.
//
// An MPI rank in the simulated cluster is an "actor": a user function that
// runs on its own ucontext fiber (a private stack on the caller's OS thread)
// and is scheduled cooperatively — the engine resumes exactly one actor at a
// time and advances a single global virtual clock. Actor code therefore reads
// like ordinary blocking MPI code while the whole simulation stays
// deterministic and data-race free; a handoff is a swapcontext, not a
// kernel wake-up. The large host kernel bodies an actor or callback runs
// (CRC, MPC chunk loops, reductions, delivery copies) may fork onto
// util::parallel_for's worker threads, but they join before the body
// returns, inside the one engine step that started them: no other actor
// or event runs while they do, and none sees their output half written.
//
// Scheduling model:
//   * The engine owns a priority queue of events ordered by (time, seq).
//   * ActorContext::advance(dt) re-enqueues the caller at now+dt and yields.
//   * ActorContext::block() yields without re-enqueueing; some other event
//     must later call Engine::wake(actor, t).
//   * Plain callbacks scheduled with Engine::schedule(t, fn) run on the
//     engine's own stack between actor resumptions (never inside one).
//
// Catch-handler rule: all fibers share one OS thread, and the C++ runtime
// keeps its stack of caught exceptions per thread. An actor must therefore
// not advance() or block() inside a catch handler — another actor's
// exception could land on top of its own and a `throw;` would rethrow the
// wrong one. Leave the handler first (record what it needs, act after the
// closing brace); the yield primitives throw std::logic_error otherwise.
//
// Deadlock (all actors blocked, queue empty) throws with a diagnostic that
// lists the blocked actors — invaluable when debugging protocol bugs.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace gcmpi::sim {

class Engine;

using ActorId = std::uint32_t;
inline constexpr ActorId kNoActor = static_cast<ActorId>(-1);

/// Handed to each actor body; the actor's only interface to virtual time.
class ActorContext {
 public:
  ActorContext(Engine& engine, ActorId id) : engine_(engine), id_(id) {}

  [[nodiscard]] ActorId id() const { return id_; }
  [[nodiscard]] Engine& engine() { return engine_; }

  /// Current virtual time (global clock; valid while this actor runs).
  [[nodiscard]] Time now() const;

  /// Elapse `dt` of virtual time (models computation / driver overhead).
  void advance(Time dt);

  /// Elapse until absolute time `t` (no-op if `t` <= now()).
  void advance_to(Time t);

  /// Yield until some event calls Engine::wake(id()). Returns at the wake
  /// time. Used by blocking receive / wait primitives.
  void block();

  // advance(), advance_to() and block() throw std::logic_error when called
  // inside a catch handler (see the catch-handler rule above).

 private:
  Engine& engine_;
  ActorId id_;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register an actor. Must be called before run(). The body runs on its
  /// own fiber once run() starts; all bodies begin at time zero.
  ActorId spawn(std::string name, std::function<void(ActorContext&)> body);

  /// Run the simulation to completion. Rethrows the first actor exception.
  /// Throws std::runtime_error on deadlock.
  void run();

  /// Global virtual clock (time of the event being dispatched).
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule a callback on the engine's stack at absolute time `t`.
  void schedule(Time t, std::function<void()> fn);

  /// Cancelable timeout: like schedule(), but the returned token can later
  /// be passed to cancel() to turn the pending callback into a no-op (the
  /// queue slot still drains at `t`). Used for protocol watchdog timers
  /// (e.g. the rendezvous retransmission timeout) that are usually
  /// disarmed by the event they guard against.
  using CancelToken = std::shared_ptr<bool>;
  CancelToken schedule_cancelable(Time t, std::function<void()> fn);
  static void cancel(CancelToken& token);

  /// Wake a blocked actor at absolute time `t` (>= now). It is an error to
  /// wake an actor that is not blocked.
  void wake(ActorId id, Time t);

  [[nodiscard]] std::size_t actor_count() const { return actors_.size(); }
  [[nodiscard]] const std::string& actor_name(ActorId id) const { return actors_[id]->name; }

 private:
  friend class ActorContext;

  enum class ActorState : std::uint8_t { NotStarted, Runnable, Running, Blocked, Finished };

  struct UnmapStack {
    void operator()(void* mapping) const;
  };

  struct Actor {
    std::string name;
    std::function<void(ActorContext&)> body;
    ucontext_t context{};
    std::unique_ptr<void, UnmapStack> stack;  // guard page + stack, mapped on first resume
    void* asan_fake_stack = nullptr;  // ASan's bookkeeping for this fiber
    void* tsan_fiber = nullptr;       // TSan's, created on first resume
    ActorState state = ActorState::NotStarted;
    std::exception_ptr error;
  };

  struct Event {
    Time time;
    std::uint64_t seq;
    ActorId actor;                // kNoActor for plain callbacks
    std::function<void()> fn;     // only for plain callbacks
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  // Actor-side primitives (called from actor fibers via ActorContext).
  void actor_yield_runnable_at(ActorId id, Time t);  // advance()
  void actor_yield_blocked(ActorId id);              // block()

  void resume_actor(ActorId id);   // engine side: switch in, return at its yield
  static void fiber_entry(unsigned engine_hi, unsigned engine_lo, ActorId id);
  void actor_main(ActorId id);     // fiber body
  void yield_to_engine(Actor& a);  // actor side: switch back to run()
  void enqueue_resume(ActorId id, Time t);
  /// Unwind every parked actor (SimulationAborted) so run() can throw
  /// without freeing a stack that still holds live objects.
  void abort_all();

  std::vector<std::unique_ptr<Actor>> actors_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  bool running_ = false;
  bool aborting_ = false;  // set on abnormal end; resumed actors unwind
  ucontext_t engine_context_{};  // run()'s context while an actor runs
  // ASan bookkeeping for run()'s own stack, learnt on the first switch.
  void* asan_engine_fake_stack_ = nullptr;
  const void* asan_engine_stack_bottom_ = nullptr;
  std::size_t asan_engine_stack_size_ = 0;
  void* tsan_engine_fiber_ = nullptr;
};

/// Thrown out of blocking primitives when the engine aborts a simulation
/// (deadlock or an exception elsewhere) so parked actors unwind.
struct SimulationAborted : std::exception {
  const char* what() const noexcept override { return "simulation aborted (deadlock)"; }
};

}  // namespace gcmpi::sim
