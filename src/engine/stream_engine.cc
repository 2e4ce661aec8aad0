#include "engine/stream_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "serialize/serialize.h"
#include "util/fault_injection.h"
#include "util/worker_pool.h"

namespace kw {

StreamEngine::StreamEngine(StreamEngineOptions options)
    : options_(std::move(options)) {
  if (options_.batch_size == 0) {
    throw std::invalid_argument("StreamEngine: batch_size must be >= 1");
  }
  if (options_.shards == 0) {
    throw std::invalid_argument("StreamEngine: shards must be >= 1");
  }
  if (options_.checkpoint_every_updates > 0 &&
      options_.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "StreamEngine: checkpointing enabled without a checkpoint_path");
  }
}

StreamEngine& StreamEngine::attach(StreamProcessor& processor) {
  processors_.push_back(&processor);
  return *this;
}

std::size_t StreamEngine::validate_and_count_passes(
    const StreamSource& source) const {
  if (processors_.empty()) {
    throw std::logic_error("StreamEngine: no processors attached");
  }
  std::size_t total_passes = 0;
  for (const StreamProcessor* p : processors_) {
    if (p->passes_required() == 0) {
      throw std::logic_error(
          "StreamEngine: processor declares passes_required() == 0; every "
          "algorithm consumes at least one pass");
    }
    if (p->n() != source.n()) {
      throw std::logic_error(
          "StreamEngine: processor built for n=" + std::to_string(p->n()) +
          " but the source streams over n=" + std::to_string(source.n()));
    }
    total_passes = std::max(total_passes, p->passes_required());
  }
  return total_passes;
}

EngineRunStats StreamEngine::run(StreamSource& source) {
  return run_from(source, /*start_pass=*/0, /*skip_updates=*/0);
}

void StreamEngine::check_not_poisoned() const {
  if (poisoned_) {
    throw std::logic_error(
        "StreamEngine: a previous run on this engine failed mid-ingest, so "
        "the attached processors hold partial state that is not a prefix of "
        "any legal stream; rebuild the processors and the engine (or resume "
        "from a checkpoint into fresh processors) instead of reusing them");
  }
}

void StreamEngine::collect_health(EngineRunStats& stats) const {
  stats.health.processors.clear();
  stats.health.processors.reserve(processors_.size());
  for (const StreamProcessor* p : processors_) {
    ProcessorHealth h = p->health();
    if (h.name.empty()) {
      const std::uint32_t tag = p->serial_tag();
      h.name = tag == 0 ? "processor" : ser::tag_name(tag);
    }
    stats.health.processors.push_back(std::move(h));
  }
}

EngineRunStats StreamEngine::run_from(StreamSource& source,
                                      std::size_t start_pass,
                                      std::uint64_t skip_updates) {
  check_not_poisoned();
  const std::size_t total_passes = validate_and_count_passes(source);

  // One shared lane budget for the whole engine: every processor that
  // scatters or decodes in parallel draws from this pool through per-phase
  // lane caps, instead of spinning a private thread set next to the shard
  // workers.  A 1-lane pool (e.g. a single-threaded host) starts no threads
  // at all.
  const std::size_t decode_lanes =
      WorkerPool::resolve_lanes(options_.decode_workers);
  if (!pool_) pool_ = std::make_shared<WorkerPool>(decode_lanes);
  for (StreamProcessor* p : processors_) {
    p->use_worker_pool(pool_, decode_lanes);
  }

  // One persistent driver serves every sharded pass of the run: worker
  // threads outlive pass boundaries, only the per-pass clones are re-taken.
  std::unique_ptr<ConcurrentIngestDriver> driver;
  if (options_.shards > 1) {
    ConcurrentIngestOptions driver_options;
    driver_options.workers = options_.shards;
    driver_options.flush_capacity = options_.batch_size;
    driver_options.queue_depth = options_.shard_queue_depth;
    driver_options.router = options_.shard_router;
    driver_options.flush_jitter_seed = options_.shard_flush_jitter_seed;
    driver = std::make_unique<ConcurrentIngestDriver>(driver_options);
  }

  updates_since_checkpoint_ = 0;
  EngineRunStats stats;
  stats.shards = options_.shards;
  try {
    for (std::size_t pass = start_pass; pass < total_passes; ++pass) {
      std::vector<StreamProcessor*> active;
      for (StreamProcessor* p : processors_) {
        if (pass < p->passes_required()) active.push_back(p);
      }
      source.begin_pass();
      if (driver != nullptr) {
        run_pass_concurrent(source, active, *driver, stats);
      } else {
        run_pass_sequential(source, active, stats, pass,
                            pass == start_pass ? skip_updates : 0);
      }
      source.end_pass();
      ++stats.passes;
      for (StreamProcessor* p : active) {
        if (pass + 1 == p->passes_required()) {
          p->finish();
        } else {
          p->advance_pass();
        }
      }
      // Sharded ingest has no serializable cut while worker clones are in
      // flight, so its checkpoints land here, on the pass boundary after
      // the merge (offset 0 of the next pass).  Sequential ingest already
      // checkpoints mid-pass at the configured cadence.
      if (driver != nullptr && options_.checkpoint_every_updates > 0 &&
          pass + 1 < total_passes) {
        ser::Writer buffer;
        write_checkpoint(pass + 1, /*offset=*/0, buffer);
      }
    }
  } catch (...) {
    // The processors absorbed some prefix of a pass that will never be
    // completed; no later run over them can be correct.
    poisoned_ = true;
    throw;
  }
  collect_health(stats);
  if (options_.strict && !stats.health.healthy()) {
    throw DecodeDegradedError(stats.health.summary());
  }
  return stats;
}

EngineRunStats StreamEngine::run(const DynamicStream& stream) {
  ReplaySource source(stream);
  const std::size_t passes_before = stream.passes_used();
  EngineRunStats stats = run(source);
  const std::size_t charged = stream.passes_used() - passes_before;
  if (charged != stats.passes) {
    // Someone replayed the stream out-of-band mid-run (e.g. a processor
    // holding a stream reference) -- exactly the bespoke-pass-plumbing bug
    // class this engine retires.
    throw std::logic_error(
        "StreamEngine: pass-contract violation -- engine made " +
        std::to_string(stats.passes) + " physical passes but the stream was "
        "charged " + std::to_string(charged) +
        " (a processor replayed the stream outside the engine)");
  }
  return stats;
}

StreamEngine::CheckpointCut StreamEngine::load_checkpoint(
    const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw ser::SerializeError("cannot open checkpoint file: " + path);
  }
  std::vector<unsigned char> storage;
  ser::Reader r = ser::detail::read_envelope(is, ser::kTagCheckpoint, storage);
  const auto n = r.get<std::uint32_t>();
  const auto pass = r.get<std::uint64_t>();
  const auto offset = r.get<std::uint64_t>();
  const auto count = r.get<std::uint64_t>();
  if (count != processors_.size()) {
    throw ser::SerializeError(
        "checkpoint holds " + std::to_string(count) +
        " processors but the engine has " +
        std::to_string(processors_.size()) + " attached");
  }
  if (options_.shards > 1 && offset != 0) {
    throw ser::SerializeError(
        "checkpoint was taken mid-pass (offset " + std::to_string(offset) +
        ") by a sequential run; sharded resume can only restart from a pass "
        "boundary -- resume with shards == 1 or re-checkpoint at a pass "
        "boundary");
  }
  for (const StreamProcessor* p : processors_) {
    if (p->n() != n) {
      throw ser::SerializeError(
          "checkpoint was taken over n=" + std::to_string(n) +
          " but a processor is built for n=" + std::to_string(p->n()));
    }
  }
  ser::Loader(r).processors(processors_, nullptr);
  r.expect_end();
  return {static_cast<std::size_t>(pass), offset};
}

EngineRunStats StreamEngine::resume(StreamSource& source,
                                    const std::string& checkpoint_path) {
  if (processors_.empty()) {
    throw std::logic_error("StreamEngine: no processors attached");
  }
  check_not_poisoned();
  CheckpointCut cut;
  try {
    cut = load_checkpoint(checkpoint_path);
  } catch (const ser::SerializeError& latest_error) {
    // A crash can strand a corrupt/truncated/missing latest checkpoint; the
    // rotation sibling is the previous good one.  Skip the fallback when it
    // does not exist so a plain "wrong file" error stays direct.
    const std::string prev = checkpoint_path + ".prev";
    if (!std::ifstream(prev, std::ios::binary)) throw;
    // deserialize() fully overwrites each processor's state, so a fallback
    // after a partially-applied first attempt is safe.
    try {
      cut = load_checkpoint(prev);
    } catch (const ser::SerializeError& prev_error) {
      throw ser::SerializeError(
          "latest checkpoint " + checkpoint_path + " is unusable (" +
          latest_error.what() + ") and the rotation fallback " + prev +
          " also failed (" + prev_error.what() + ")");
    }
  }
  return run_from(source, cut.pass, cut.offset);
}

EngineRunStats StreamEngine::resume(const DynamicStream& stream,
                                    const std::string& checkpoint_path) {
  ReplaySource source(stream);
  return resume(source, checkpoint_path);
}

namespace {

// Writes the concatenation of `parts` to a fresh `path` and fsyncs it
// before returning: after this, the bytes survive a power cut even though
// the file is not yet linked under its final name.
void write_file_durable(
    const std::string& path,
    std::initializer_list<std::span<const unsigned char>> parts) {
  if (fault::fire(fault::site::kCheckpointWrite)) {
    throw ser::SerializeError(
        "injected transient checkpoint write failure (ENOSPC): " + path);
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw ser::SerializeError("cannot open checkpoint tmp file: " + path +
                              ": " + std::strerror(errno));
  }
  for (const std::span<const unsigned char> part : parts) {
    std::size_t written = 0;
    while (written < part.size()) {
      const ::ssize_t got =
          ::write(fd, part.data() + written, part.size() - written);
      if (got < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        throw ser::SerializeError("checkpoint write failed: " + path + ": " +
                                  std::strerror(err));
      }
      written += static_cast<std::size_t>(got);
    }
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw ser::SerializeError("checkpoint fsync failed: " + path + ": " +
                              std::strerror(err));
  }
  ::close(fd);
}

// fsyncs the directory containing `path` so the renames themselves are
// durable.  Best-effort: some filesystems refuse directory fsync, and the
// file-level fsync already bounds the damage to "old checkpoint survives".
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, std::max<std::size_t>(
                                                            slash, 1));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

void StreamEngine::write_checkpoint(std::size_t pass, std::uint64_t offset,
                                    ser::Writer& w) const {
  // Every processor serializes straight into the one checkpoint buffer,
  // behind its tag and a u64 length patched once its payload is written
  // (the processor-list framing DemuxProcessor shares).
  w.clear();
  w.begin_section("checkpoint.header");
  w.put<std::uint32_t>(processors_.front()->n());
  w.put<std::uint64_t>(pass);
  w.put<std::uint64_t>(offset);
  w.put<std::uint64_t>(processors_.size());
  w.end_section();
  ser::Saver(w).processors(processors_, nullptr);
  const std::vector<unsigned char>& payload = w.buffer();
  const ser::detail::EnvelopeFrame frame =
      ser::detail::frame_envelope(ser::kTagCheckpoint, payload);

  // Durability protocol (every step is a crash point the recovery harness
  // kills at; resume() tolerates all of them):
  //   1. write + fsync the ".tmp" sibling (bounded retry on transient
  //      failure -- ENOSPC-style errors are often momentary)
  //   2. rotate the current checkpoint to ".prev" (keeps one good
  //      checkpoint on disk at every instant)
  //   3. rename ".tmp" into place (atomic publish)
  //   4. fsync the directory so the renames are durable
  const std::string& path = options_.checkpoint_path;
  const std::string tmp = path + ".tmp";
  const std::string prev = path + ".prev";
  constexpr int kWriteAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    try {
      write_file_durable(tmp, {frame.header, payload, frame.trailer});
      break;
    } catch (const ser::SerializeError&) {
      if (attempt >= kWriteAttempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    }
  }
  if (fault::fire(fault::site::kCheckpointBeforeRename)) {
    throw ser::SerializeError(
        "injected failure between checkpoint write and rename");
  }
  if (::access(path.c_str(), F_OK) == 0) {
    if (std::rename(path.c_str(), prev.c_str()) != 0) {
      throw ser::SerializeError("checkpoint rotation failed: " + path +
                                " -> " + prev + ": " + std::strerror(errno));
    }
  }
  if (fault::fire(fault::site::kCheckpointMidRotate)) {
    throw ser::SerializeError(
        "injected failure between checkpoint rotation and publish");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw ser::SerializeError("checkpoint rename failed: " + tmp + " -> " +
                              path + ": " + std::strerror(errno));
  }
  if (fault::fire(fault::site::kCheckpointAfterRename)) {
    throw ser::SerializeError("injected failure after checkpoint publish");
  }
  fsync_parent_dir(path);
}

void StreamEngine::run_single(StreamProcessor& processor,
                              const DynamicStream& stream,
                              std::size_t batch_size) {
  StreamEngine engine(StreamEngineOptions{batch_size, /*shards=*/1});
  engine.attach(processor);
  (void)engine.run(stream);
}

namespace {

// One batch from the source, preferring the zero-copy view path and
// falling back to copying into `buffer`.  Empty result = pass exhausted.
[[nodiscard]] std::span<const EdgeUpdate> pull_batch(
    StreamSource& source, std::vector<EdgeUpdate>& buffer) {
  if (const auto view = source.next_view(buffer.size())) return *view;
  const std::size_t got = source.next_batch(buffer);
  return {buffer.data(), got};
}

}  // namespace

void StreamEngine::run_pass_sequential(
    StreamSource& source, const std::vector<StreamProcessor*>& active,
    EngineRunStats& stats, std::size_t pass_index,
    std::uint64_t skip_updates) {
  std::vector<EdgeUpdate> buffer(options_.batch_size);
  // Released when the pass's input ends, before the pass boundary.
  ser::Writer checkpoint_buffer;
  const bool first_pass = pass_index == 0 && skip_updates == 0;
  // Updates absorbed during this pass so far, including a resumed prefix:
  // the offset recorded with each checkpoint.
  std::uint64_t absorbed_in_pass = skip_updates;
  for (;;) {
    const std::span<const EdgeUpdate> batch = pull_batch(source, buffer);
    if (batch.empty()) break;
    std::span<const EdgeUpdate> feed = batch;
    if (skip_updates > 0) {
      // Resume: drop the prefix the checkpointed run already absorbed.  A
      // partial batch remainder is fed as-is -- every attached sketch's
      // state is invariant to batch boundaries, so the final state matches
      // the uninterrupted run exactly.
      if (batch.size() <= skip_updates) {
        skip_updates -= batch.size();
        continue;
      }
      feed = batch.subspan(static_cast<std::size_t>(skip_updates));
      skip_updates = 0;
    }
    if (fault::fire(fault::site::kEngineAbsorbBatch)) {
      throw std::runtime_error("fault injected: engine.absorb_batch");
    }
    for (StreamProcessor* p : active) p->absorb(feed);
    ++stats.batches;
    absorbed_in_pass += feed.size();
    if (first_pass) stats.updates_per_pass += feed.size();
    if (options_.checkpoint_every_updates > 0) {
      updates_since_checkpoint_ += feed.size();
      if (updates_since_checkpoint_ >= options_.checkpoint_every_updates) {
        updates_since_checkpoint_ = 0;
        write_checkpoint(pass_index, absorbed_in_pass, checkpoint_buffer);
      }
    }
  }
}

void StreamEngine::run_pass_concurrent(
    StreamSource& source, const std::vector<StreamProcessor*>& active,
    ConcurrentIngestDriver& driver, EngineRunStats& stats) {
  // The front-end (this thread) is the only one touching the source, so no
  // source lock is needed at all: it pulls batches, routes each update to
  // its shard's aggregation buffer, and the driver hands full buffers to
  // the worker threads over the bounded rings.
  driver.begin_pass(active);
  std::vector<EdgeUpdate> buffer(options_.batch_size);
  for (;;) {
    const std::span<const EdgeUpdate> batch = pull_batch(source, buffer);
    if (batch.empty()) break;
    if (fault::fire(fault::site::kEngineAbsorbBatch)) {
      throw std::runtime_error("fault injected: engine.absorb_batch");
    }
    driver.push(batch);
    // A worker already failed: stop feeding, let end_pass() barrier and
    // rethrow instead of routing the remainder of the pass for nothing.
    if (driver.failed()) break;
  }
  const ConcurrentIngestStats pass = driver.end_pass();
  stats.batches += pass.batches;
  stats.backpressure_waits += pass.backpressure_waits;
  if (stats.passes == 0) stats.updates_per_pass = pass.updates;
}

}  // namespace kw
