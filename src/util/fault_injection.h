/// Deterministic, seeded fault injection for robustness tests.
///
/// Production code declares *named sites* at the places where the real world
/// can go wrong -- a short write, a torn rename, a worker thread dying
/// mid-pass -- and tests arm those sites with deterministic schedules:
///
///   fault::arm(fault::site::kCheckpointBeforeRename,
///              fault::Schedule::nth_hit(2),
///              [] { std::raise(SIGKILL); });   // crash-harness trigger
///
/// A site check is `fault::fire("name")`.  With nothing armed it compiles
/// down to one relaxed atomic load and a predictable branch -- no map
/// lookup, no lock, no allocation -- so sites are safe on ingest hot paths
/// (bench_serialize's fault-hooks row pins this at zero measured cost).
/// Once any site is armed, fire() takes a mutex-guarded slow path that
/// counts the hit, evaluates the site's schedule, runs the optional
/// on_trigger callback (which may never return: the crash harness raises
/// SIGKILL from it), and reports whether the caller should fail.
///
/// What "fail" means is the CALLER's contract, kept next to each site:
/// serialization sites produce short writes / injected ENOSPC / bit-flips,
/// engine sites throw, the concurrent driver's stall site sleeps.  The
/// subsystem itself only answers "does this hit trigger?".
///
/// Schedules are deterministic functions of (site hit counter, seed), so a
/// failing test replays exactly; hits are counted only while the site is
/// armed.  Arming is process-global and inherited across fork() -- exactly
/// what tests/test_crash_recovery.cc needs to kill a child at a chosen
/// point.
#ifndef KW_UTIL_FAULT_INJECTION_H
#define KW_UTIL_FAULT_INJECTION_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace kw::fault {

struct Schedule {
  enum class Kind : std::uint8_t {
    kNth,          // trigger exactly on the nth evaluation (1-based)
    kProbability,  // trigger each evaluation independently w.p. p (seeded)
    kWindow,       // trigger on evaluations with 0-based index in [from, to)
  };

  Kind kind = Kind::kNth;
  std::uint64_t nth = 1;
  double probability = 0.0;
  std::uint64_t seed = 1;
  std::uint64_t from = 0;
  std::uint64_t to = ~0ULL;

  [[nodiscard]] static Schedule nth_hit(std::uint64_t n) {
    Schedule s;
    s.kind = Kind::kNth;
    s.nth = n;
    return s;
  }
  [[nodiscard]] static Schedule with_probability(double p,
                                                 std::uint64_t seed) {
    Schedule s;
    s.kind = Kind::kProbability;
    s.probability = p;
    s.seed = seed;
    return s;
  }
  [[nodiscard]] static Schedule window(std::uint64_t from, std::uint64_t to) {
    Schedule s;
    s.kind = Kind::kWindow;
    s.from = from;
    s.to = to;
    return s;
  }
  [[nodiscard]] static Schedule always() { return window(0, ~0ULL); }
};

// Arms `site`.  Re-arming an armed site replaces its schedule and resets
// its counters.  `on_trigger`, when set, runs on every triggering hit
// before fire() returns true (crash harnesses raise SIGKILL from it).
void arm(const std::string& site, Schedule schedule,
         std::function<void()> on_trigger = {});

// Disarming clears the site's schedule and counters; unknown sites are
// ignored.  disarm_all() returns the process to the zero-overhead state.
void disarm(const std::string& site);
void disarm_all();

// Evaluations / triggers since the site was (re-)armed; 0 if not armed.
[[nodiscard]] std::uint64_t hits(const std::string& site);
[[nodiscard]] std::uint64_t triggers(const std::string& site);

// RAII arming for tests: disarms the site on scope exit.
class ScopedArm {
 public:
  ScopedArm(std::string site, Schedule schedule,
            std::function<void()> on_trigger = {})
      : site_(std::move(site)) {
    arm(site_, schedule, std::move(on_trigger));
  }
  ~ScopedArm() { disarm(site_); }
  ScopedArm(const ScopedArm&) = delete;
  ScopedArm& operator=(const ScopedArm&) = delete;

 private:
  std::string site_;
};

namespace detail {
// True iff at least one site is armed.  Relaxed reads are sufficient: a
// racing arm() only delays the first slow-path evaluation by one check, and
// tests arm before starting the threads they observe.
extern std::atomic<bool> g_enabled;
[[nodiscard]] bool fire_slow(const char* site);
}  // namespace detail

// The site check.  Disabled (the production state): one relaxed load, false.
[[nodiscard]] inline bool fire(const char* site) {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) [[likely]] {
    return false;
  }
  return detail::fire_slow(site);
}

// ---- site catalog --------------------------------------------------------
// Every site threaded through production code, in one place so tests and
// docs/ARCHITECTURE.md cannot drift from the code.  Caller contract in
// comments; the string is the arm()/fire() key.
namespace site {

// serialize.cc write_envelope: emit a short (truncated) envelope, then fail
// the stream -> ser::save throws SerializeError.
inline constexpr char kSerializeWriteShort[] = "serialize.write.short";
// serialize.cc frame_envelope, on every ser::save and engine checkpoint:
// fail before writing anything (disk full).
inline constexpr char kSerializeWriteEnospc[] = "serialize.write.enospc";
// serialize.cc read_envelope: flip one payload bit after the read, before
// the CRC check -- which must therefore throw SerializeError.
inline constexpr char kSerializeReadBitflip[] = "serialize.read.bitflip";

// stream_engine.cc write_checkpoint: transient failure of one durable-write
// attempt (the bounded retry-with-backoff path absorbs it).
inline constexpr char kCheckpointWrite[] = "engine.checkpoint.write";
// stream_engine.cc write_checkpoint crash points, in publish order: after
// the temp file is durable but before any rename; between the
// current->prev rotation and the tmp->current publish; after publish.
// Armed with an on_trigger that SIGKILLs in the crash harness; if fire()
// returns (no crash), the caller throws SerializeError.
inline constexpr char kCheckpointBeforeRename[] =
    "engine.checkpoint.before_rename";
inline constexpr char kCheckpointMidRotate[] = "engine.checkpoint.mid_rotate";
inline constexpr char kCheckpointAfterRename[] =
    "engine.checkpoint.after_rename";

// stream_engine.cc: per-batch site on both ingest paths (sequential absorb
// loop and the concurrent front-end's push loop).  Trigger -> the engine
// throws; the crash harness instead SIGKILLs from on_trigger to die
// mid-pass.  This is also the hot-path site the serialize bench measures
// disabled.
inline constexpr char kEngineAbsorbBatch[] = "engine.absorb_batch";

// concurrent_ingest.cc worker_loop: throw from a worker mid-pass (the
// exception is captured and rethrown at end_pass()).
inline constexpr char kWorkerAbsorb[] = "concurrent.worker.absorb";
// concurrent_ingest.cc worker_loop: stall the consumer for a few ms before
// absorbing, forcing front-end backpressure on its full ring.
inline constexpr char kWorkerStall[] = "concurrent.worker.stall";

// worker_pool.cc: throw from a claimed pool task (e.g. a KP12 per-instance
// absorb/finish fan-out lane).
inline constexpr char kPoolTask[] = "worker_pool.task";

}  // namespace site

}  // namespace kw::fault

#endif  // KW_UTIL_FAULT_INJECTION_H
