/**
 * @file
 * Workload `fleet-1.5b-cal`: a calibrated `DfxFleet` of 4 nodes x 2
 * clusters serving 10^6 open-loop Poisson requests (32:32) at about
 * 0.8x its capacity with the least-loaded router.
 *
 * Why: after calibration the serve is pure event-queue and router
 * arithmetic; cluster timing runs only in set-up, inside
 * `RoundCostModel::calibrate` (GPT-2 1.5B on the paper's 4-FPGA
 * appliance: 4 cores, 8 KV contexts). A scheduler change that costs
 * host time per event shows here at scale; a change to the cores or
 * kernels moves only set-up.
 */
#include <algorithm>
#include <memory>

#include "appliance/fleet.hpp"
#include "appliance/workload.hpp"
#include "perf/host_profile.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

using namespace dfx;

constexpr size_t kRequests = 1000000;
constexpr size_t kIn = 32, kOut = 32;
constexpr double kLoad = 0.8;
constexpr size_t kCalibrations = 3;  ///< set-ups per run (median)
/** 5x the unloaded TTFT, 2x the unloaded TPOT of a 32:32 request. */
constexpr SloLimits kSlo{5 * 189.8e-3, 2 * 6.29e-3};

DfxSystemConfig
calibrationConfig()
{
    DfxSystemConfig cfg;
    cfg.model = GptConfig::gpt2_1_5B();
    cfg.nCores = 4;
    cfg.kvContexts = 8;
    cfg.functional = false;
    return cfg;
}

FleetTopology
topology()
{
    FleetTopology t;
    t.nNodes = 4;
    t.clustersPerNode = 2;
    return t;
}

bool
sameModel(const RoundCostModel &a, const RoundCostModel &b)
{
    if (a.alpha.size() != b.alpha.size())
        return false;
    for (size_t i = 0; i < a.alpha.size(); ++i)
        if (!sameBits(a.alpha[i], b.alpha[i]) ||
            !sameBits(a.beta[i], b.beta[i]))
            return false;
    return true;
}

}  // namespace

void
runFleetCal(const Options &opt, Report &report)
{
    const DfxSystemConfig cal = calibrationConfig();
    FleetOptions fopts;
    fopts.policy = FleetRoutePolicy::LeastLoaded;
    fopts.serveDeadlineHostSeconds = 150.0;

    // --- set-up: cost-model calibration and fleet construction -------
    std::unique_ptr<DfxFleet> fleet;
    RoundCostModel model;
    std::vector<double> setup, setup_wall, calibrate;
    RefTimer timer;
    for (size_t rep = 0; rep < kCalibrations; ++rep) {
        fleet.reset();
        const double t0 = now();
        timer.start();
        const RoundCostModel m = RoundCostModel::calibrate(cal);
        const double calibrated = now() - t0;
        fleet = std::make_unique<DfxFleet>(m, topology(), fopts);
        setup.push_back(timer.stop());
        setup_wall.push_back(setup.back() / timer.factor());
        calibrate.push_back(calibrated * timer.factor());
        report.check(rep == 0 || sameModel(m, model),
                     "calibration %zu fitted a different cost model", rep);
        model = m;
    }

    const FleetTopology topo = topology();
    const double round =
        model.roundSeconds(model.kvContexts, (kIn + kOut) / 2.0);
    const double capacity_rps =
        static_cast<double>(topo.nNodes * topo.clustersPerNode *
                            model.kvContexts) /
        (round * static_cast<double>(kIn + kOut));
    WorkloadSpec spec;
    spec.nRequests = kRequests;
    spec.nIn = kIn;
    spec.nOut = kOut;
    spec.vocab = cal.model.vocabSize;
    spec.seed = opt.seed;
    const std::vector<ServerRequest> requests =
        poissonWorkload(spec, kLoad * capacity_rps);
    report.attempted = requests.size();

    // --- timed phase: the same serve repeated until time is up -------
    FleetStats first;
    uint64_t first_digest = 0;
    std::vector<double> serve_s, serve_wall;
    const double start = now();
    for (size_t rep = 0; rep < 2 || now() - start < opt.seconds; ++rep) {
        timer.start();
        FleetStats stats = fleet->serve(requests);
        serve_s.push_back(timer.stop());
        serve_wall.push_back(serve_s.back() / timer.factor());
        const uint64_t digest = timelineDigest(stats.results);
        if (rep == 0) {
            first = std::move(stats);
            first_digest = digest;
            continue;
        }
        report.check(digest == first_digest &&
                         stats.eventsProcessed == first.eventsProcessed &&
                         sameBits(stats.makespanSeconds,
                                  first.makespanSeconds),
                     "serve %zu did not repeat the first serve's events "
                     "and timeline bit for bit",
                     rep);
    }
    report.check(first.completedRequests == requests.size(),
                 "%zu of %zu requests completed", first.completedRequests,
                 requests.size());
    reportRequests(report, requests, first.results, first.makespanSeconds,
                   kSlo, false);

    const double tokens =
        static_cast<double>(first.completedRequests * (kIn + kOut));
    const double serve_median = median(serve_s);
    report.e2e("host_tokens_per_s", "1/s", tokens / serve_median);
    report.e2e("setup_s", "s", median(setup));
    report.info("host_tokens_per_s_wall", tokens / median(serve_wall));
    report.info("setup_s_wall", median(setup_wall));
    report.e2e("peak_rss_mb", "MiB", peakRssMb());
    report.info("serves", static_cast<double>(serve_s.size()));
    report.info("offered_rps", kLoad * capacity_rps);

    if (!opt.trace)
        return;
    const double events = static_cast<double>(first.eventsProcessed);
    report.layer("fleet.events", "count", events);
    report.layer("fleet.host_ns_per_event", "ns",
                 serve_median / events * 1e9);
    report.layer("fleet.queue_delay_ms_p99", "ms",
                 first.queueDelayP99Seconds * 1e3);
    double lo = 1.0, hi = 0.0;
    for (const FleetNodeStats &n : first.nodes) {
        lo = std::min(lo, n.utilization);
        hi = std::max(hi, n.utilization);
    }
    report.layer("fleet.node_util_min", "frac", lo);
    report.layer("fleet.node_util_max", "frac", hi);
    report.layer("fleet.calibrate_s", "s", median(calibrate));

    // Modelled ops of one unloaded 32:32 request on the calibrated
    // appliance.
    DfxAppliance probe(cal);
    reportSimOps(report,
                 probe.generate(std::vector<int32_t>(requests[0].prompt),
                                kOut),
                 kIn + kOut);

    // Traced pass: a calibration (the only cluster work here) and one
    // serve. The calibration's per-phase spans run to millions, so
    // only their totals are kept.
    SpanLog spans;
    spans.start(opt.traceDir + "/fleet-1.5b-cal.sim.json");
    {
        ScopedSpan s(spans, "RoundCostModel::calibrate", "appliance");
        RoundCostModel::calibrate(cal);
    }
    // Each token step patches the embedding and every layer template
    // once, and fetches the LM-head program of every core without
    // patching it; a fetch that compiled is a cache miss. The LM head
    // runs outside the "execute" span, so the fleet's
    // cluster.execute_us_per_step leaves it out, unlike the other
    // workloads' (read from the cluster's host profile).
    const SpanTotal codegen = simulatorSpan("codegen");
    const SpanTotal patch = simulatorSpan("patch");
    perf::HostStepProfile isa;
    isa.steps = patch.count / (cal.model.layers + 1);
    isa.codegenSeconds = codegen.seconds;
    isa.patchSeconds = patch.seconds;
    isa.encodeSeconds = simulatorSpan("encode").seconds;
    isa.executeSeconds = simulatorSpan("execute").seconds +
                         simulatorSpan("ring-sync").seconds;
    isa.cacheMisses = codegen.count;
    isa.cacheHits = patch.count + isa.steps * cal.nCores - codegen.count;
    report.check(isa.steps > 0 && patch.count % (cal.model.layers + 1) == 0,
                 "calibration patched %llu templates, not a whole number "
                 "of token steps",
                 static_cast<unsigned long long>(patch.count));
    reportHostProfile(report, isa);
    spans.restartSimulator();
    const double t0 = now();
    {
        ScopedSpan s(spans, "DfxFleet::serve", "appliance");
        fleet->serve(requests);
    }
    report.layer("trace.overhead_frac", "frac",
                 1.0 - median(serve_wall) / (now() - t0));
    report.check(spans.stop(opt.traceDir + "/fleet-1.5b-cal.bench.json"),
                 "cannot write the trace files under %s",
                 opt.traceDir.c_str());
}

}  // namespace perfbench
