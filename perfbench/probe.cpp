#include "probe.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace gc = gcmpi::core;
using gcmpi::sim::Time;

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.nvcsw = ru.ru_nvcsw;
  u.nivcsw = ru.ru_nivcsw;
  u.minflt = ru.ru_minflt;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  return u;
}

Usage Usage::operator-(const Usage& before) const {
  return {nvcsw - before.nvcsw, nivcsw - before.nivcsw, minflt - before.minflt,
          sys_s - before.sys_s};
}

Usage& Usage::operator+=(const Usage& delta) {
  nvcsw += delta.nvcsw;
  nivcsw += delta.nivcsw;
  minflt += delta.minflt;
  sys_s += delta.sys_s;
  return *this;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome_trace(const std::string& path, const std::string& process) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"otherData\": {\"process\": \"" << json_escape(process) << "\"},\n"
    << " \"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"op_id\": %lld, \"virt_start_us\": %.3f, "
                  "\"virt_end_us\": %.3f}}",
                  s.tid, s.wall_start_us, s.wall_end_us - s.wall_start_us,
                  static_cast<long long>(s.op_id), s.virt_start_us, s.virt_end_us);
    f << "  {\"name\": \"" << json_escape(s.name) << "\", \"cat\": \"" << s.category
      << "\", " << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << " ]}\n";
  return static_cast<bool>(f);
}

template <typename F>
auto TimedAdaptive::timed(const char* name, double& total_s, F&& f) {
  if (!tracer_.enabled()) return f();
  const double w0 = tracer_.now_us();
  auto result = f();
  const double w1 = tracer_.now_us();
  total_s += (w1 - w0) * 1e-6;
  tracer_.add({name, "adapt", -1, w0, w1, -1.0, -1.0, -1});
  return result;
}

void TimedAdaptive::bind(gc::Telemetry& telemetry) {
  inner_.bind(telemetry);
  telemetry.set_observer(this);
}

gc::CompressChoice TimedAdaptive::choose_codec(Time now, int rank, const char* scope,
                                               std::uint64_t bytes) {
  return timed("adapt.choose_codec", choose_s_,
               [&] { return inner_.choose_codec(now, rank, scope, bytes); });
}

gc::CollectiveAlgorithm TimedAdaptive::choose_allreduce(Time now, int rank,
                                                        std::uint64_t bytes, int ranks,
                                                        int nodes, int gpus_per_node) {
  return timed("adapt.choose_allreduce", choose_s_, [&] {
    return inner_.choose_allreduce(now, rank, bytes, ranks, nodes, gpus_per_node);
  });
}

gc::CollectiveAlgorithm TimedAdaptive::choose_alltoall(Time now, int rank,
                                                       std::uint64_t block_bytes,
                                                       int ranks) {
  return timed("adapt.choose_alltoall", choose_s_,
               [&] { return inner_.choose_alltoall(now, rank, block_bytes, ranks); });
}

gc::CollectiveAlgorithm TimedAdaptive::choose_bcast(Time now, int rank, std::uint64_t bytes,
                                                    int ranks, int nodes,
                                                    int gpus_per_node) {
  return timed("adapt.choose_bcast", choose_s_, [&] {
    return inner_.choose_bcast(now, rank, bytes, ranks, nodes, gpus_per_node);
  });
}

gc::CollectiveAlgorithm TimedAdaptive::choose_allgather(Time now, int rank,
                                                        std::uint64_t block_bytes, int ranks,
                                                        int nodes, int gpus_per_node) {
  return timed("adapt.choose_allgather", choose_s_, [&] {
    return inner_.choose_allgather(now, rank, block_bytes, ranks, nodes, gpus_per_node);
  });
}

gc::CollectiveAlgorithm TimedAdaptive::choose_gather(Time now, int rank,
                                                     std::uint64_t block_bytes, int ranks,
                                                     int nodes, int gpus_per_node) {
  return timed("adapt.choose_gather", choose_s_, [&] {
    return inner_.choose_gather(now, rank, block_bytes, ranks, nodes, gpus_per_node);
  });
}

gc::CollectiveAlgorithm TimedAdaptive::choose_scatter(Time now, int rank,
                                                      std::uint64_t block_bytes, int ranks,
                                                      int nodes, int gpus_per_node) {
  return timed("adapt.choose_scatter", choose_s_, [&] {
    return inner_.choose_scatter(now, rank, block_bytes, ranks, nodes, gpus_per_node);
  });
}

void TimedAdaptive::on_event(const gc::TelemetryEvent& ev) {
  timed("adapt.observe", observe_s_, [&] {
    inner_.on_event(ev);
    return 0;
  });
}

void TimedAdaptive::on_pipeline(const gc::PipelineRecord& rec) {
  timed("adapt.observe", observe_s_, [&] {
    inner_.on_pipeline(rec);
    return 0;
  });
}

void TimedAdaptive::on_collective(const gc::CollectiveRecord& rec) {
  timed("adapt.observe", observe_s_, [&] {
    inner_.on_collective(rec);
    return 0;
  });
}

}  // namespace perfbench
