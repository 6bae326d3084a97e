/**
 * @file
 * Timeline observability: a span/instant/counter event recorder.
 *
 * One Recorder belongs to one Machine and records structured timeline
 * events -- spans (begin/end pairs), instants, and counter samples --
 * stamped with deterministic simulated time and grouped onto tracks
 * (one per CPU, one machine-wide, per-thread tracks on demand). The
 * recording is exported in Chrome Trace Event Format JSON, loadable in
 * Perfetto or chrome://tracing, so a run -- especially a failing run
 * the model checker found -- can be inspected as a timeline instead of
 * re-read from text traces.
 *
 * Design constraints, in the spirit of the xpr package (Section 6):
 *
 *  - off by default, one predictable branch per site when disabled
 *    (the trace::enabled pattern);
 *  - recording never perturbs simulated time on its own; the
 *    MachineConfig::obs_record_cost knob (machsim --obs-cost) charges
 *    the Section 6.1-style instrumentation cost explicitly when the
 *    measurement-perturbation experiment wants it;
 *  - deterministic: timestamps come from the simulated clock and the
 *    JSON is formatted with integer arithmetic only, so the same seed
 *    and flags produce byte-identical files (a golden digest test
 *    enforces this);
 *  - a bounded-ring "flight recorder" mode keeps only the most recent
 *    events and dumps them to a file when a failure is detected (a
 *    stale translation, a failed verdict, a minimized schedule).
 */

#ifndef MACH_OBS_RECORDER_HH
#define MACH_OBS_RECORDER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"
#include "obs/metrics.hh"

namespace mach::obs
{

/** Index of one timeline track (a "thread" row in the trace viewer). */
using TrackId = std::uint32_t;
constexpr TrackId kNoTrack = ~TrackId{0};

/** One small integer argument attached to an event. */
struct Arg
{
    const char *key = nullptr; ///< Static string; null = absent.
    std::uint64_t value = 0;
};

/** One recorded timeline event. */
struct Event
{
    Tick ts = 0;
    char phase = 'i'; ///< 'B' begin, 'E' end, 'i' instant, 'C' counter.
    TrackId track = 0;
    const char *name = nullptr;     ///< Static string.
    const char *category = nullptr; ///< Static string; may be null.
    Arg arg0;
    Arg arg1;
    /**
     * Optional free-form detail emitted as args.detail. The pointer
     * must outlive the recorder's export (static strings or names of
     * objects owned by the machine, e.g. thread names).
     */
    const char *detail = nullptr;
};

/**
 * Suffix a file path before its extension: ("t.json", "seed0x1")
 * -> "t.seed0x1.json". Used to give every --repeat seed its own
 * trace file.
 */
std::string suffixedPath(const std::string &path, const std::string &tag);

/** The per-machine timeline recorder. */
class Recorder
{
  public:
    using Clock = std::function<Tick()>;

    /** @p clock reads the owning machine's simulated time. */
    explicit Recorder(Clock clock);

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** The one-branch gate every instrumentation site tests first. */
    bool enabled() const { return enabled_; }

    /** Record everything (unbounded), e.g. for --trace-json. */
    void enable();

    /**
     * Flight-recorder mode: keep only the most recent @p capacity
     * events; older ones are dropped (and counted).
     */
    void enableRing(std::size_t capacity);

    /**
     * Stats-only mode: every instrumentation site runs (SpanGuards
     * feed their histograms, samplers feed counters-as-histograms)
     * but no timeline events are stored -- the memory-flat mode the
     * serving-tier runs and `machsim --stats-json` use, where only
     * the latency distributions matter, not the timeline.
     */
    void enableStats();

    void disable();

    bool ringMode() const { return ring_capacity_ != 0; }
    bool statsOnly() const { return stats_only_; }
    std::uint64_t droppedEvents() const { return dropped_; }

    // ---- Tracks ------------------------------------------------------

    /**
     * Create a named track; ids are dense and deterministic (creation
     * order). Track 0 ("machine") always exists.
     */
    TrackId defineTrack(const std::string &name);

    /** Define the per-CPU tracks "cpu0".."cpuN-1" (Machine, once). */
    void setCpuTracks(unsigned ncpus);

    TrackId machineTrack() const { return 0; }
    TrackId cpuTrack(CpuId id) const { return cpu_track_base_ + id; }

    const std::vector<std::string> &tracks() const { return tracks_; }

    // ---- Recording (call only when enabled()) ------------------------

    void begin(TrackId track, const char *name, const char *category,
               Arg arg0 = {}, Arg arg1 = {});
    void end(TrackId track, const char *name);
    void instant(TrackId track, const char *name, const char *category,
                 Arg arg0 = {}, Arg arg1 = {},
                 const char *detail = nullptr);
    void counter(TrackId track, const char *name, std::uint64_t value);

    Tick now() const { return clock_(); }

    Metrics &metrics() { return metrics_; }
    const Metrics &metrics() const { return metrics_; }

    const std::deque<Event> &events() const { return events_; }

    // ---- Export ------------------------------------------------------

    /**
     * The whole recording as Chrome Trace Event Format JSON
     * ({"traceEvents":[...]}). Timestamps are microseconds with a
     * fixed 3-digit fraction, rendered with integer arithmetic so the
     * output is byte-stable across runs and hosts.
     */
    std::string toJson() const;

    /** Write toJson() to @p path. Returns false on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

    // ---- Flight-recorder dump ----------------------------------------

    /** Where a failure-triggered dump goes (empty = dumps disabled). */
    void setDumpPath(std::string path) { dump_path_ = std::move(path); }
    const std::string &dumpPath() const { return dump_path_; }

    /**
     * Failure hook: if enabled and a dump path is set, write the
     * recording (in ring mode: the surviving tail) to the dump path,
     * once per recorder; later calls are no-ops. @p reason is noted in
     * the trace metadata. Returns true when a file was written.
     */
    bool dumpOnFailure(const char *reason);

    bool dumped() const { return dumped_; }

  private:
    void push(Event event);

    Clock clock_;
    bool enabled_ = false;
    bool stats_only_ = false;
    std::size_t ring_capacity_ = 0; ///< 0 = unbounded.
    std::uint64_t dropped_ = 0;
    std::deque<Event> events_;
    std::vector<std::string> tracks_;
    TrackId cpu_track_base_ = 0;
    Metrics metrics_;
    std::string dump_path_;
    bool dumped_ = false;
    const char *dump_reason_ = nullptr;
};

/**
 * RAII span: emits a 'B' event at construction and the matching 'E' at
 * destruction on the same track (so migrating callers cannot split a
 * span across tracks). Costs one branch when the recorder is disabled.
 * Optionally feeds the span's duration (in whole microseconds) into a
 * named latency histogram.
 */
class SpanGuard
{
  public:
    SpanGuard(Recorder &recorder, TrackId track, const char *name,
              const char *category, const char *histogram = nullptr,
              Arg arg0 = {}, Arg arg1 = {})
    {
        if (!recorder.enabled())
            return;
        recorder_ = &recorder;
        track_ = track;
        name_ = name;
        histogram_ = histogram;
        begin_ = recorder.now();
        recorder.begin(track, name, category, arg0, arg1);
    }

    ~SpanGuard()
    {
        if (recorder_ == nullptr)
            return;
        recorder_->end(track_, name_);
        if (histogram_ != nullptr) {
            recorder_->metrics().histogram(histogram_).record(
                (recorder_->now() - begin_) / kUsec);
        }
    }

    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    Recorder *recorder_ = nullptr;
    TrackId track_ = 0;
    const char *name_ = nullptr;
    const char *histogram_ = nullptr;
    Tick begin_ = 0;
};

} // namespace mach::obs

#endif // MACH_OBS_RECORDER_HH
