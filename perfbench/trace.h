// Tracing harness of the repository benchmark.  Every span is recorded
// from outside the library: a StreamProcessor wrapper times each call into
// the real processor, and a StreamSource wrapper stamps the pass
// boundaries.  Nothing under src/ knows it is being traced.
//
// Spans carry a name, start, end, parent and thread id; they are kept in
// memory and read once when the benchmark ends.  A span's self time is its
// duration minus the part of it covered by its direct children.
#ifndef KW_PERFBENCH_TRACE_H
#define KW_PERFBENCH_TRACE_H

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/stream_processor.h"
#include "engine/stream_source.h"
#include "serialize/binary_io.h"

namespace kw::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point origin,
                                          Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

// Resident set size of this process, from /proc/self/status.
[[nodiscard]] inline double current_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;     // index into Tracer::spans(), -1 = root
  std::size_t thread = 0;
  std::uint64_t count = 0;  // updates absorbed, or bytes serialized
};

// Self time of spans[index]: its duration minus the union of its direct
// children's intervals, each clipped to the parent's interval.
[[nodiscard]] inline double self_time(const std::vector<Span>& spans,
                                      std::size_t index) {
  const Span& parent = spans[index];
  std::vector<std::pair<double, double>> covered;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(index)) continue;
    const double lo = std::max(s.start, parent.start);
    const double hi = std::min(s.end, parent.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double union_length = 0.0;
  double run_lo = 0.0;
  double run_hi = -1.0;
  for (const auto& [lo, hi] : covered) {
    if (lo > run_hi) {
      if (run_hi > run_lo) union_length += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
    } else {
      run_hi = std::max(run_hi, hi);
    }
  }
  if (run_hi > run_lo) union_length += run_hi - run_lo;
  return (parent.end - parent.start) - union_length;
}

// Collects spans from every thread.  Nesting is tracked per thread: a span
// opened while another span of the same thread is open becomes its child.
// Worker threads of the sharded driver open their spans with no parent.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()), caller_(thread_index()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] double now() const {
    return seconds_since(origin_, Clock::now());
  }

  // Opens a span on the calling thread and returns its index.
  int open(std::string name) {
    const double t = now();
    const std::size_t thread = thread_index();
    std::lock_guard<std::mutex> lock(mutex_);
    close_checkpoint_gap_locked(t, thread);
    Span s;
    s.name = std::move(name);
    s.start = t;
    s.thread = thread;
    std::vector<int>& stack = stack_of_locked(thread);
    s.parent = stack.empty() ? -1 : stack.back();
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack.push_back(index);
    return index;
  }

  void close(int index, std::uint64_t count = 0) {
    const double t = now();
    const auto at = static_cast<std::size_t>(index);
    std::lock_guard<std::mutex> lock(mutex_);
    // May append a span, so the reference below is taken after it.
    close_checkpoint_gap_locked(t, spans_[at].thread);
    Span& s = spans_[at];
    s.end = t;
    s.count = count;
    std::vector<int>& stack = stack_of_locked(s.thread);
    if (!stack.empty() && stack.back() == index) stack.pop_back();
  }

  // The engine writes a checkpoint file right after it serializes the
  // attached processors.  That I/O happens inside the engine, between
  // library calls, so it is recorded as the gap from the end of a
  // `serialize` span to the caller thread's next traced call.
  void mark_serialized() {
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    gap_open_ = true;
    gap_start_ = t;
  }

  // Closes a pending checkpoint gap (end of a run with no further call).
  void settle() {
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    close_checkpoint_gap_locked(t, caller_);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::size_t caller_thread() const noexcept { return caller_; }

  // Dense per-process thread ids (0 = first thread seen).
  [[nodiscard]] static std::size_t thread_index() {
    static std::mutex ids_mutex;
    static std::vector<std::thread::id> ids;
    thread_local std::size_t cached = static_cast<std::size_t>(-1);
    if (cached != static_cast<std::size_t>(-1)) return cached;
    std::lock_guard<std::mutex> lock(ids_mutex);
    const auto self = std::this_thread::get_id();
    const auto it = std::find(ids.begin(), ids.end(), self);
    cached = static_cast<std::size_t>(it - ids.begin());
    if (it == ids.end()) ids.push_back(self);
    return cached;
  }

 private:
  std::vector<int>& stack_of_locked(std::size_t thread) {
    if (stacks_.size() <= thread) stacks_.resize(thread + 1);
    return stacks_[thread];
  }

  void close_checkpoint_gap_locked(double t, std::size_t thread) {
    if (!gap_open_ || thread != caller_) return;
    gap_open_ = false;
    Span s;
    s.name = "serialize.checkpoint_io";
    s.start = gap_start_;
    s.end = t;
    s.thread = thread;
    const std::vector<int>& stack = stack_of_locked(thread);
    s.parent = stack.empty() ? -1 : stack.back();
    spans_.push_back(std::move(s));
  }

  Clock::time_point origin_;
  std::size_t caller_;
  std::mutex mutex_;  // guards everything below
  std::vector<Span> spans_;
  std::vector<std::vector<int>> stacks_;  // open spans per thread
  bool gap_open_ = false;
  double gap_start_ = 0.0;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), index_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(index_, count_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_count(std::uint64_t count) { count_ = count; }

 private:
  Tracer& tracer_;
  int index_;
  std::uint64_t count_ = 0;
};

// Times every call into a real processor under "<layer>.<call>" spans.
// Clones are wrapped too, so the sharded driver's worker-owned copies are
// traced on their worker threads, and merge() unwraps its argument before
// forwarding.
class TracedProcessor final : public StreamProcessor {
 public:
  TracedProcessor(StreamProcessor& inner, std::string layer, Tracer& tracer)
      : inner_(&inner), layer_(std::move(layer)), tracer_(&tracer) {}

  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return inner_->passes_required();
  }
  [[nodiscard]] Vertex n() const noexcept override { return inner_->n(); }

  void absorb(std::span<const EdgeUpdate> batch) override {
    Scope s(*tracer_, layer_ + ".absorb");
    s.set_count(batch.size());
    inner_->absorb(batch);
  }
  void advance_pass() override {
    Scope s(*tracer_, layer_ + ".advance_pass");
    inner_->advance_pass();
  }
  void finish() override {
    Scope s(*tracer_, layer_ + ".finish");
    inner_->finish();
  }
  [[nodiscard]] ProcessorHealth health() const override {
    return inner_->health();
  }
  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override {
    std::unique_ptr<StreamProcessor> clone;
    {
      Scope s(*tracer_, layer_ + ".clone_empty");
      clone = inner_->clone_empty();
    }
    if (clone == nullptr) return nullptr;
    auto wrapped = std::make_unique<TracedProcessor>(*clone, layer_, *tracer_);
    wrapped->owned_ = std::move(clone);
    return wrapped;
  }
  void merge(StreamProcessor&& other) override {
    auto& traced = merge_cast<TracedProcessor>(other);
    Scope s(*tracer_, layer_ + ".merge");
    inner_->merge(std::move(*traced.inner_));
  }
  [[nodiscard]] std::size_t shard_affinity(
      const EdgeUpdate& update, std::size_t shards) const noexcept override {
    return inner_->shard_affinity(update, shards);
  }
  void use_worker_pool(std::shared_ptr<WorkerPool> pool,
                       std::size_t decode_lanes) override {
    inner_->use_worker_pool(std::move(pool), decode_lanes);
  }
  [[nodiscard]] std::uint32_t serial_tag() const noexcept override {
    return inner_->serial_tag();
  }
  void serialize(ser::Writer& w) const override {
    {
      Scope s(*tracer_, layer_ + ".serialize");
      const std::size_t before = w.buffer().size();
      inner_->serialize(w);
      s.set_count(w.buffer().size() - before);
    }
    tracer_->mark_serialized();
  }
  void deserialize(ser::Reader& r) override {
    Scope s(*tracer_, layer_ + ".deserialize");
    inner_->deserialize(r);
  }

 private:
  StreamProcessor* inner_;
  std::unique_ptr<StreamProcessor> owned_;  // set on clones only
  std::string layer_;
  Tracer* tracer_;
};

// Forwards a source and stamps its pass boundaries.  Always used, traced or
// not: ingest throughput and result latency are measured at the source.
// With a tracer, each pass is also a "stream.pass" span on the caller
// thread, parent of the processor calls made during the pass.
class TimingSource final : public StreamSource {
 public:
  explicit TimingSource(StreamSource& inner, Tracer* tracer = nullptr)
      : inner_(&inner), tracer_(tracer) {}

  [[nodiscard]] Vertex n() const noexcept override { return inner_->n(); }

  void begin_pass() override {
    if (tracer_ != nullptr) pass_span_ = tracer_->open("stream.pass");
    pass_begin_ = Clock::now();
    inner_->begin_pass();
  }
  [[nodiscard]] std::size_t next_batch(std::span<EdgeUpdate> out) override {
    const std::size_t got = inner_->next_batch(out);
    if (got > 0) ++batches_served_;
    return got;
  }
  [[nodiscard]] std::optional<std::span<const EdgeUpdate>> next_view(
      std::size_t max_len) override {
    auto view = inner_->next_view(max_len);
    if (view.has_value() && !view->empty()) ++batches_served_;
    return view;
  }
  void end_pass() override {
    inner_->end_pass();
    last_end_ = Clock::now();
    pass_seconds_ +=
        std::chrono::duration<double>(last_end_ - pass_begin_).count();
    ++passes_;
    if (tracer_ != nullptr) {
      tracer_->close(pass_span_);
      rss_after_pass_mib_ = std::max(rss_after_pass_mib_, current_rss_mib());
    }
  }

  // Summed begin_pass -> end_pass wall over every pass.
  [[nodiscard]] double pass_seconds() const noexcept { return pass_seconds_; }
  [[nodiscard]] std::size_t passes() const noexcept { return passes_; }
  [[nodiscard]] std::size_t batches_served() const noexcept {
    return batches_served_;
  }
  // Traced only: the largest RSS seen at a pass end.
  [[nodiscard]] double rss_after_pass_mib() const noexcept {
    return rss_after_pass_mib_;
  }
  // Valid once a pass has ended: the instant the final pass ended.
  [[nodiscard]] Clock::time_point last_end() const noexcept {
    return last_end_;
  }

 private:
  StreamSource* inner_;
  Tracer* tracer_;
  int pass_span_ = -1;
  Clock::time_point pass_begin_{};
  Clock::time_point last_end_{};
  double pass_seconds_ = 0.0;
  std::size_t passes_ = 0;
  std::size_t batches_served_ = 0;
  double rss_after_pass_mib_ = 0.0;
};

}  // namespace kw::perfbench

#endif  // KW_PERFBENCH_TRACE_H
