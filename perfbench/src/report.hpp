/**
 * @file
 * Shared plumbing of the benchmark binary: run options, the metric
 * report every workload fills in, benchmark-side trace spans and a few
 * statistics helpers.
 *
 * The benchmark only calls the simulator's public entry points; everything
 * here measures *around* those calls, never inside them.
 */
#ifndef DFX_PERFBENCH_REPORT_HPP
#define DFX_PERFBENCH_REPORT_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dfx {
struct TokenStats;
struct GenerationResult;
struct RequestResult;
struct ServerRequest;
namespace perf {
struct HostStepProfile;
}  // namespace perf
}  // namespace dfx

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;   ///< minimum length of the timed phase
    bool trace = false;      ///< per-layer (traced) run
    std::string traceDir;    ///< where traced runs write their spans
};

/**
 * What one run measured. Each workload sets the metrics it measures,
 * with their units; `run.py` checks them against BENCHMARK.json and
 * reads a per-layer metric a workload does not set as 0 (a layer it
 * does not exercise). `check` records a failed correctness check; any
 * failure makes the run exit non-zero without usable numbers.
 */
class Report
{
  public:
    void check(bool ok, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));
    bool correct() const { return errors_.empty(); }

    /** End-to-end metric (untraced runs); must be positive. */
    void e2e(const std::string &name, const char *unit, double value);
    /** Per-layer metric (traced runs). */
    void layer(const std::string &name, const char *unit, double value);
    /** Free-form context printed with the result (not a metric). */
    void info(const std::string &key, double value);

    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Writes the run's JSON object (one line) to stdout. */
    void print(const Options &opt);

  private:
    struct Metric
    {
        double value;
        std::string unit;
    };
    std::vector<std::string> errors_;
    std::map<std::string, Metric> e2e_, layers_;
    std::map<std::string, double> info_;
};

/**
 * Benchmark-side Chrome trace spans around public calls, with an
 * optional request id. Kept in memory; written as a `trace_event`
 * JSON file when the run ends. Timestamps share the steady clock and
 * origin of the simulator's own trace, so both files overlay in one
 * timeline.
 */
class SpanLog
{
  public:
    bool enabled() const { return enabled_; }
    void add(const char *name, const char *cat, uint64_t t0, uint64_t t1,
             int64_t request);
    /**
     * Starts the simulator's trace (written to `simPath` by `stop`)
     * and this log on a shared origin.
     */
    void start(const std::string &simPath);
    /**
     * Drops the simulator's events recorded so far (their totals have
     * been read) and keeps this log's spans and origin.
     */
    void restartSimulator();
    /**
     * Stops both, writing the simulator's file and this log's spans
     * to `spanPath`. Returns false when a file cannot be written.
     */
    bool stop(const std::string &spanPath);

  private:
    struct Span
    {
        const char *name;
        const char *cat;
        uint64_t t0, t1;
        int64_t request;
    };
    bool enabled_ = false;
    uint64_t origin_ = 0;
    std::string simPath_;
    std::vector<Span> spans_;
};

/** RAII span; records nothing while the log is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, const char *cat,
               int64_t request = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    const char *name_, *cat_;
    int64_t request_;
    uint64_t t0_ = 0;
};

/** Peak resident set size of this process, MiB. */
double peakRssMb();
/** Monotonic host time, seconds. */
double now();

/**
 * The host's speed relative to the reference host: the rate of a fixed
 * scalar loop (0.1 s of a dependent multiply-add chain over a 4 MiB
 * buffer) that shares no code with the simulator, over
 * kReferenceLoopRate. The host's core clock moves by tens of percent
 * with load elsewhere on the machine while the simulator's work per
 * cycle stays put, so host times are reported as `wall * speed`: the
 * seconds the work would take on the reference host.
 */
double hostSpeed();
/** Loop passes per second on a 4-vCPU AMD EPYC at about 4.5 GHz. */
inline constexpr double kReferenceLoopRate = 700.0;

/**
 * Times pieces of host work in reference-host seconds: the host's
 * speed is sampled when the timer is made and after every piece, and a
 * piece's wall time is scaled by the mean of the samples around it.
 */
class RefTimer
{
  public:
    RefTimer() : speed_(hostSpeed()) {}
    void start() { t0_ = now(); }
    /** Ends a piece; returns its reference seconds. */
    double stop();
    /** Reference seconds per wall second of the last piece. */
    double factor() const { return factor_; }

  private:
    double speed_;
    double t0_ = 0.0, factor_ = 1.0;
};
double median(std::vector<double> values);
/** FNV-1a digest of a token sequence. */
uint64_t tokenDigest(const std::vector<int32_t> &tokens);
/** Same-bits comparison (simulated values must repeat exactly). */
bool sameBits(double a, double b);

/** Summed host seconds and count of one simulator trace span name. */
struct SpanTotal
{
    double seconds = 0.0;
    uint64_t count = 0;
};
SpanTotal simulatorSpan(const char *name);

/** Host profile accumulated between two snapshots. */
dfx::perf::HostStepProfile
profileDelta(dfx::perf::HostStepProfile after,
             const dfx::perf::HostStepProfile &before);
/** `isa.*` / `cluster.*` per-step host costs from a profile delta. */
void reportHostProfile(Report &r, const dfx::perf::HostStepProfile &p);
/** `sim.*` modelled-op shares and per-token work of summed steps. */
void reportSimOps(Report &r, const dfx::TokenStats &sum, uint64_t steps);
/** The same for one whole request (PCIe excluded). */
void reportSimOps(Report &r, const dfx::GenerationResult &g, uint64_t steps);

/** Latency limits a request must meet to count toward goodput. */
struct SloLimits
{
    double ttftSeconds;
    double tpotSeconds;
};

/**
 * Checks that `results` accounts for every submitted request (by id,
 * with its arrival), that every completion has finite, ordered
 * timestamps (arrival <= admit <= first token <= finish) and, unless
 * `tokensRecorded` is false, its nOut tokens; counts the rest as
 * failed, and reports the `sim_*` end-to-end metrics.
 */
void reportRequests(Report &r, const std::vector<dfx::ServerRequest> &requests,
                    const std::vector<dfx::RequestResult> &results,
                    double makespanSeconds, SloLimits slo,
                    bool tokensRecorded);

/** Outcome-free digest of request timestamps (repeatability check). */
uint64_t timelineDigest(const std::vector<dfx::RequestResult> &results);

// Workload entry points (one per BENCHMARK.json workload).
void runDecodeFn(const Options &opt, Report &report);
void runServePaged(const Options &opt, Report &report);
void runFleetCal(const Options &opt, Report &report);
/** Re-derives decode-fn's pinned digests from the reference model. */
int printReferenceDigests();

}  // namespace perfbench

#endif  // DFX_PERFBENCH_REPORT_HPP
