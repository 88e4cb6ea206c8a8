#include "sim/engine.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace gcmpi::sim {

namespace {

// As deep as a default pthread stack. MAP_NORESERVE: only the pages an
// actor touches are ever faulted in.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

std::size_t guard_bytes() { return static_cast<std::size_t>(sysconf(_SC_PAGESIZE)); }

// ASan and TSan must hear of every stack switch. ASan otherwise takes the
// other fiber's frames for overflows (false stack-buffer-overflow reports
// from __asan_handle_no_return); TSan keeps a shadow stack per fiber and
// orders the fibers' accesses at each switch to `tsan_fiber`. No-ops in
// every other build.
void start_switch([[maybe_unused]] void** fake_stack_save, [[maybe_unused]] const void* bottom,
                  [[maybe_unused]] std::size_t size, [[maybe_unused]] void* tsan_fiber) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
}

void finish_switch([[maybe_unused]] void* fake_stack_save,
                   [[maybe_unused]] const void** bottom_old,
                   [[maybe_unused]] std::size_t* size_old) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

// The catch-handler rule (engine.hpp): checked before any state changes.
void reject_yield_in_handler() {
  if (std::current_exception()) {
    throw std::logic_error("ActorContext: an actor must not yield inside a catch handler");
  }
}

}  // namespace

std::string to_string(Time t) {
  char buf[64];
  if (t.count_ns() < 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3f us", t.to_us());
  } else if (t.count_ns() < 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", t.to_ms());
  } else {
    std::snprintf(buf, sizeof(buf), "%.6f s", t.to_seconds());
  }
  return buf;
}

Time ActorContext::now() const { return engine_.now(); }

void ActorContext::advance(Time dt) {
  if (dt < Time::zero()) throw std::invalid_argument("ActorContext::advance: negative dt");
  engine_.actor_yield_runnable_at(id_, engine_.now() + dt);
}

void ActorContext::advance_to(Time t) {
  if (t <= engine_.now()) return;
  engine_.actor_yield_runnable_at(id_, t);
}

void ActorContext::block() { engine_.actor_yield_blocked(id_); }

void Engine::UnmapStack::operator()(void* mapping) const {
  munmap(mapping, guard_bytes() + kStackBytes);
}

ActorId Engine::spawn(std::string name, std::function<void(ActorContext&)> body) {
  if (running_) throw std::logic_error("Engine::spawn: cannot spawn while running");
  auto actor = std::make_unique<Actor>();
  actor->name = std::move(name);
  actor->body = std::move(body);
  actors_.push_back(std::move(actor));
  return static_cast<ActorId>(actors_.size() - 1);
}

void Engine::schedule(Time t, std::function<void()> fn) {
  if (t < now_) throw std::invalid_argument("Engine::schedule: time in the past");
  queue_.push(Event{t, next_seq_++, kNoActor, std::move(fn)});
}

Engine::CancelToken Engine::schedule_cancelable(Time t, std::function<void()> fn) {
  auto armed = std::make_shared<bool>(true);
  schedule(t, [armed, fn = std::move(fn)] {
    if (*armed) fn();
  });
  return armed;
}

void Engine::cancel(CancelToken& token) {
  if (token) {
    *token = false;
    token.reset();
  }
}

void Engine::wake(ActorId id, Time t) {
  Actor& a = *actors_.at(id);
  if (a.state != ActorState::Blocked) {
    throw std::logic_error("Engine::wake: actor '" + a.name + "' is not blocked");
  }
  a.state = ActorState::Runnable;
  enqueue_resume(id, t < now_ ? now_ : t);
}

void Engine::enqueue_resume(ActorId id, Time t) {
  queue_.push(Event{t, next_seq_++, id, nullptr});
}

void Engine::fiber_entry(unsigned engine_hi, unsigned engine_lo, ActorId id) {
  const std::uint64_t engine = (std::uint64_t{engine_hi} << 32) | engine_lo;
  reinterpret_cast<Engine*>(static_cast<std::uintptr_t>(engine))->actor_main(id);
}

void Engine::actor_main(ActorId id) {
  Actor& a = *actors_[id];
  finish_switch(nullptr, &asan_engine_stack_bottom_, &asan_engine_stack_size_);
  {
    ActorContext ctx(*this, id);
    try {
      a.body(ctx);
    } catch (...) {
      a.error = std::current_exception();
    }
  }
  a.state = ActorState::Finished;
  start_switch(nullptr, asan_engine_stack_bottom_, asan_engine_stack_size_, tsan_engine_fiber_);
#if defined(__SANITIZE_THREAD__)
  // Under TSan a finished fiber switches away for good: a return through
  // uc_link would pop the engine's shadow stack. Elsewhere it returns, so
  // ASan sees its frames unwind before the stack is unmapped and reused.
  swapcontext(&a.context, &engine_context_);
#endif
}  // returns through uc_link into resume_actor()

void Engine::yield_to_engine(Actor& a) {
  start_switch(&a.asan_fake_stack, asan_engine_stack_bottom_, asan_engine_stack_size_,
               tsan_engine_fiber_);
  swapcontext(&a.context, &engine_context_);
  finish_switch(a.asan_fake_stack, &asan_engine_stack_bottom_, &asan_engine_stack_size_);
}

void Engine::actor_yield_runnable_at(ActorId id, Time t) {
  reject_yield_in_handler();
  Actor& a = *actors_[id];
  a.state = ActorState::Runnable;
  enqueue_resume(id, t);
  yield_to_engine(a);
  if (aborting_) throw SimulationAborted{};
}

void Engine::actor_yield_blocked(ActorId id) {
  reject_yield_in_handler();
  Actor& a = *actors_[id];
  a.state = ActorState::Blocked;
  yield_to_engine(a);
  if (aborting_) throw SimulationAborted{};
}

void Engine::resume_actor(ActorId id) {
  Actor& a = *actors_[id];
  if (a.state == ActorState::NotStarted) {
    // Guard page at the low end: an overflow faults instead of writing
    // into the neighbouring mapping.
    void* map = mmap(nullptr, guard_bytes() + kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (map == MAP_FAILED) throw std::system_error(errno, std::generic_category(), "actor stack");
    a.stack.reset(map);
    if (mprotect(map, guard_bytes(), PROT_NONE) != 0) {
      throw std::system_error(errno, std::generic_category(), "actor stack guard");
    }
    getcontext(&a.context);
    a.context.uc_stack.ss_sp = static_cast<char*>(map) + guard_bytes();
    a.context.uc_stack.ss_size = kStackBytes;
    a.context.uc_link = &engine_context_;
    const std::uint64_t engine = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&a.context, reinterpret_cast<void (*)()>(&Engine::fiber_entry), 3,
                static_cast<unsigned>(engine >> 32), static_cast<unsigned>(engine), id);
#if defined(__SANITIZE_THREAD__)
    a.tsan_fiber = __tsan_create_fiber(0);
    tsan_engine_fiber_ = __tsan_get_current_fiber();
#endif
  }
  a.state = ActorState::Running;
  start_switch(&asan_engine_fake_stack_, a.context.uc_stack.ss_sp, kStackBytes, a.tsan_fiber);
  swapcontext(&engine_context_, &a.context);
  finish_switch(asan_engine_fake_stack_, nullptr, nullptr);
#if defined(__SANITIZE_THREAD__)
  if (a.state == ActorState::Finished) __tsan_destroy_fiber(a.tsan_fiber);
#endif
}

void Engine::run() {
  if (running_) throw std::logic_error("Engine::run: re-entered");
  running_ = true;
  // All actors start at time zero.
  for (ActorId id = 0; id < actors_.size(); ++id) enqueue_resume(id, Time::zero());

  // The first exception from a callback or an actor ends the run. Parked
  // actors are unwound outside the handler (see the catch-handler rule).
  std::exception_ptr failure;
  while (!failure && !queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    if (ev.actor == kNoActor) {
      try {
        ev.fn();
      } catch (...) {
        failure = std::current_exception();
      }
    } else {
      Actor& a = *actors_[ev.actor];
      if (a.state == ActorState::Finished) continue;
      resume_actor(ev.actor);
      failure = std::exchange(a.error, nullptr);
    }
  }
  if (failure) {
    abort_all();
    running_ = false;
    std::rethrow_exception(failure);
  }

  // Queue drained: every actor must have finished, otherwise we deadlocked.
  std::ostringstream blocked;
  bool deadlock = false;
  for (const auto& a : actors_) {
    if (a->state != ActorState::Finished && a->state != ActorState::NotStarted) {
      deadlock = true;
      blocked << " '" << a->name << "'";
    }
  }
  running_ = false;
  if (deadlock) {
    abort_all();
    throw std::runtime_error("Engine::run: deadlock, blocked actors:" + blocked.str());
  }
}

void Engine::abort_all() {
  // Resume every parked actor with the abort flag set so its fiber unwinds
  // (SimulationAborted) before its stack is freed.
  aborting_ = true;
  queue_ = {};
  for (ActorId id = 0; id < actors_.size(); ++id) {
    Actor& a = *actors_[id];
    if (a.state == ActorState::Blocked || a.state == ActorState::Runnable) {
      resume_actor(id);
    }
  }
}

}  // namespace gcmpi::sim
