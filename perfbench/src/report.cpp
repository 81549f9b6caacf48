/**
 * @file
 * Report, span log and statistics helpers of the benchmark binary.
 */
#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "appliance/server.hpp"
#include "numeric/simd.hpp"
#include "perf/host_profile.hpp"
#include "perf/percentile.hpp"
#include "perf/trace.hpp"

namespace perfbench {

namespace {

/** JSON string literal (the benchmark's strings are plain ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

uint64_t
nowNs()
{
    return dfx::perf::trace_detail::nowNs();
}

}  // namespace

void
Report::check(bool ok, const char *fmt, ...)
{
    if (ok)
        return;
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "CHECK FAILED: %s\n", buf);
    errors_.emplace_back(buf);
}

void
Report::e2e(const std::string &name, const char *unit, double value)
{
    check(std::isfinite(value) && value > 0.0,
          "%s = %g is not a positive finite value", name.c_str(), value);
    e2e_[name] = {value, unit};
}

void
Report::layer(const std::string &name, const char *unit, double value)
{
    check(std::isfinite(value), "%s is not finite", name.c_str());
    layers_[name] = {value, unit};
}

void
Report::info(const std::string &key, double value)
{
    info_[key] = value;
}

void
Report::print(const Options &opt)
{
    std::string metrics;
    for (const auto &[name, m] : opt.trace ? layers_ : e2e_)
        metrics += (metrics.empty() ? "" : ", ") + quoted(name) +
                   ": {\"value\": " + number(m.value) +
                   ", \"unit\": " + quoted(m.unit) + "}";
    std::string s = "{\"workload\": " + quoted(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"trace\": " + (opt.trace ? "true" : "false") +
                    ", \"simd_kernel\": " +
                    quoted(dfx::simd::kernelName()) +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"errors\": [";
    for (size_t i = 0; i < errors_.size(); ++i)
        s += (i ? ", " : "") + quoted(errors_[i]);
    s += "], \"metrics\": {" + metrics + "}, \"info\": {";
    bool first = true;
    for (const auto &[k, v] : info_) {
        s += (first ? "" : ", ") + quoted(k) + ": " + number(v);
        first = false;
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

void
SpanLog::add(const char *name, const char *cat, uint64_t t0, uint64_t t1,
             int64_t request)
{
    if (enabled_)
        spans_.push_back({name, cat, t0, t1, request});
}

void
SpanLog::start(const std::string &simPath)
{
    simPath_ = simPath;
    origin_ = nowNs();
    spans_.clear();
    enabled_ = true;
    restartSimulator();
}

void
SpanLog::restartSimulator()
{
    dfx::perf::traceStart(simPath_);
    // The simulator's file counts time from its earliest event; this
    // zero-length marker at the origin keeps both files on one clock.
    dfx::perf::trace_detail::record("perfbench.origin", "bench",
                                    dfx::perf::kTraceHostTid, origin_,
                                    origin_);
}

bool
SpanLog::stop(const std::string &spanPath)
{
    enabled_ = false;
    const bool sim_ok = dfx::perf::traceStop() > 0;
    std::FILE *f = std::fopen(spanPath.c_str(), "w");
    if (f == nullptr)
        return false;
    // pid 1 keeps the benchmark's lane apart from the simulator's
    // (pid 0) when the two files are merged into one timeline.
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
               "\"args\":{\"name\":\"perfbench\"}}",
               f);
    for (const Span &s : spans_) {
        const double ts = (static_cast<double>(s.t0) -
                           static_cast<double>(origin_)) / 1e3;
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f",
                     s.name, s.cat, ts,
                     static_cast<double>(s.t1 - s.t0) / 1e3);
        if (s.request >= 0)
            std::fprintf(f, ",\"args\":{\"request\":%lld}",
                         static_cast<long long>(s.request));
        std::fputs("}", f);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0 && sim_ok;
}

ScopedSpan::ScopedSpan(SpanLog &log, const char *name, const char *cat,
                       int64_t request)
    : log_(log), name_(name), cat_(cat), request_(request)
{
    if (log_.enabled())
        t0_ = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (log_.enabled())
        log_.add(name_, cat_, t0_, nowNs(), request_);
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
hostSpeed()
{
    constexpr size_t kFloats = size_t{1} << 20;
    static const std::vector<float> buf = [] {
        std::vector<float> b(kFloats);
        for (size_t k = 0; k < kFloats; ++k)
            b[k] = static_cast<float>(k % 97) * 0.01f;
        return b;
    }();
    volatile float sink = 0.0f;
    size_t passes = 0;
    const double t0 = now();
    double dt = 0.0;
    while (dt < 0.1) {
        float acc = 0.0f;
        for (size_t k = 0; k < kFloats; ++k)
            acc = acc * 0.999f + buf[k] * buf[(k * 7) & (kFloats - 1)];
        sink = sink + acc;
        ++passes;
        dt = now() - t0;
    }
    return static_cast<double>(passes) / dt / kReferenceLoopRate;
}

double
RefTimer::stop()
{
    const double wall = now() - t0_;
    const double next = hostSpeed();
    factor_ = 0.5 * (speed_ + next);
    speed_ = next;
    return wall * factor_;
}

double
median(std::vector<double> values)
{
    return dfx::perf::percentile(std::move(values), 0.5);
}

uint64_t
tokenDigest(const std::vector<int32_t> &tokens)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (int32_t t : tokens) {
        const uint32_t u = static_cast<uint32_t>(t);
        for (int b = 0; b < 4; ++b) {
            h ^= (u >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

SpanTotal
simulatorSpan(const char *name)
{
    SpanTotal s;
    for (const dfx::perf::TraceTotal &t : dfx::perf::traceTotals()) {
        if (t.name == name) {
            s.seconds += t.seconds;
            s.count += t.count;
        }
    }
    return s;
}

dfx::perf::HostStepProfile
profileDelta(dfx::perf::HostStepProfile after,
             const dfx::perf::HostStepProfile &before)
{
    after.codegenSeconds -= before.codegenSeconds;
    after.patchSeconds -= before.patchSeconds;
    after.encodeSeconds -= before.encodeSeconds;
    after.executeSeconds -= before.executeSeconds;
    after.cacheHits -= before.cacheHits;
    after.cacheMisses -= before.cacheMisses;
    after.steps -= before.steps;
    return after;
}

void
reportHostProfile(Report &r, const dfx::perf::HostStepProfile &p)
{
    const double steps = static_cast<double>(std::max<uint64_t>(p.steps, 1));
    r.layer("isa.codegen_us_per_step", "us", p.codegenSeconds / steps * 1e6);
    r.layer("isa.patch_us_per_step", "us", p.patchSeconds / steps * 1e6);
    r.layer("isa.encode_us_per_step", "us", p.encodeSeconds / steps * 1e6);
    r.layer("isa.cache_hit_rate", "frac", p.cacheHitRate());
    r.layer("cluster.execute_us_per_step", "us",
            p.executeSeconds / steps * 1e6);
}

void
reportSimOps(Report &r, const dfx::TokenStats &sum, uint64_t steps)
{
    using dfx::isa::Category;
    const double total = sum.seconds > 0.0 ? sum.seconds : 1.0;
    auto share = [&](Category c) {
        return sum.categorySeconds[static_cast<size_t>(c)] / total;
    };
    r.layer("sim.embed_share", "frac", share(Category::kEmbed));
    r.layer("sim.layernorm_share", "frac", share(Category::kLayerNorm));
    r.layer("sim.attention_share", "frac", share(Category::kAttention));
    r.layer("sim.ffn_share", "frac", share(Category::kFfn));
    r.layer("sim.residual_share", "frac", share(Category::kResidual));
    r.layer("sim.sync_share", "frac", share(Category::kSync));
    r.layer("sim.lm_head_share", "frac", share(Category::kLmHead));
    const double n = static_cast<double>(std::max<uint64_t>(steps, 1));
    r.layer("sim.hbm_mb_per_token", "MiB",
            static_cast<double>(sum.hbmBytes) / n / (1024.0 * 1024.0));
    r.layer("sim.gflop_per_token", "GFLOP", sum.flops / n / 1e9);
    r.layer("sim.instructions_per_token", "count",
            static_cast<double>(sum.instructions) / n);
}

void
reportSimOps(Report &r, const dfx::GenerationResult &g, uint64_t steps)
{
    dfx::TokenStats sum;
    sum.seconds = g.summarizationSeconds + g.generationSeconds;
    sum.categorySeconds = g.categorySeconds;
    sum.flops = g.summarizationFlops + g.generationFlops;
    sum.hbmBytes = g.hbmBytes;
    sum.instructions = g.instructions;
    reportSimOps(r, sum, steps);
    // The goodput limits are multiples of these unloaded latencies.
    const double n_out = static_cast<double>(g.tokens.size());
    r.info("unloaded_ttft_ms",
           (g.summarizationSeconds + g.pcieSeconds) * 1e3);
    r.info("unloaded_tpot_ms", g.generationSeconds / (n_out - 1) * 1e3);
}

void
reportRequests(Report &r, const std::vector<dfx::ServerRequest> &requests,
               const std::vector<dfx::RequestResult> &results,
               double makespanSeconds, SloLimits slo, bool tokensRecorded)
{
    r.check(results.size() == requests.size(),
            "%zu requests submitted, %zu accounted for", requests.size(),
            results.size());
    std::vector<double> ttft, tpot;
    ttft.reserve(results.size());
    tpot.reserve(results.size());
    size_t good = 0, bad = 0, out_tokens = 0;
    for (size_t i = 0; i < results.size() && i < requests.size(); ++i) {
        const dfx::RequestResult &q = results[i];
        const size_t nOut = requests[i].nOut;
        if (q.outcome != dfx::RequestOutcome::Completed) {
            ++r.failed;
            continue;
        }
        const bool finite = std::isfinite(q.arrivalSeconds) &&
                            std::isfinite(q.admitSimSeconds) &&
                            std::isfinite(q.firstTokenSimSeconds) &&
                            std::isfinite(q.finishSimSeconds);
        const bool ordered = q.id == i &&
                             sameBits(q.arrivalSeconds,
                                      requests[i].arrivalSeconds) &&
                             q.arrivalSeconds <= q.admitSimSeconds &&
                             q.admitSimSeconds <= q.firstTokenSimSeconds &&
                             q.firstTokenSimSeconds <= q.finishSimSeconds;
        const bool count_ok = !tokensRecorded || q.tokens.size() == nOut;
        if (!(finite && ordered && count_ok)) {
            if (bad++ == 0)
                r.check(false,
                        "request %llu: arrival %.9g admit %.9g first %.9g "
                        "finish %.9g, %zu of %zu tokens",
                        static_cast<unsigned long long>(q.id),
                        q.arrivalSeconds, q.admitSimSeconds,
                        q.firstTokenSimSeconds, q.finishSimSeconds,
                        q.tokens.size(), nOut);
            continue;
        }
        const double t1 = q.ttftSeconds();
        const double t2 = (q.finishSimSeconds - q.firstTokenSimSeconds) /
                          static_cast<double>(nOut - 1);
        ttft.push_back(t1);
        tpot.push_back(t2);
        out_tokens += nOut;
        good += t1 <= slo.ttftSeconds && t2 <= slo.tpotSeconds;
    }
    r.check(bad == 0, "%zu requests broke the timestamp/token invariants",
            bad);
    r.check(makespanSeconds > 0.0, "empty simulated makespan");
    r.e2e("sim_ttft_ms_p50", "ms", dfx::perf::percentile(ttft, 0.50) * 1e3);
    r.e2e("sim_ttft_ms_p99", "ms", dfx::perf::percentile(ttft, 0.99) * 1e3);
    r.e2e("sim_tpot_ms_p50", "ms", dfx::perf::percentile(tpot, 0.50) * 1e3);
    r.e2e("sim_tpot_ms_p99", "ms", dfx::perf::percentile(tpot, 0.99) * 1e3);
    r.e2e("sim_tokens_per_s", "1/s",
          static_cast<double>(out_tokens) / makespanSeconds);
    r.e2e("sim_goodput_rps", "1/s",
          static_cast<double>(good) / makespanSeconds);
    r.info("sim_requests_within_slo", static_cast<double>(good));
}

uint64_t
timelineDigest(const std::vector<dfx::RequestResult> &results)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](double v) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        h = (h ^ bits) * 0x100000001b3ull;
    };
    for (const dfx::RequestResult &q : results) {
        mix(q.admitSimSeconds);
        mix(q.firstTokenSimSeconds);
        mix(q.finishSimSeconds);
        mix(static_cast<double>(q.cluster));
    }
    return h;
}

}  // namespace perfbench
