/**
 * @file
 * Workload `decode-fn`: one closed-loop stream of functional greedy
 * generation through `DfxAppliance::prefill` + `decodeStep`.
 *
 * Why: nearly all host time of a functional step runs in the FP16 SIMD
 * kernels and the cores' MPU MAC tree; the server, the fleet and the
 * KV pager do no work here. It is the workload on which numeric/core
 * speedups must show and scheduler changes must not.
 *
 * Inputs: a pinned pool of 12..16-token prompts, each generating 112
 * tokens. The seed picks which `kSetSize` prompts form the run's fixed
 * set of generations; the set is replayed until the run's time is up.
 * Tokens are checked against digests pinned from the high-precision
 * `ReferenceModel` (re-derived by `--reference-digests`), so the timed
 * process never builds the eager weights, and every replay must repeat
 * the first pass's tokens and simulated timings bit for bit.
 */
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "appliance/appliance.hpp"
#include "appliance/server.hpp"
#include "bench_common.hpp"
#include "common/random.hpp"
#include "model/reference.hpp"
#include "perf/host_profile.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

using namespace dfx;

constexpr uint64_t kWeightSeed = 7;
constexpr size_t kPoolSize = 24;
constexpr size_t kSetSize = 12;   ///< generations of the simulated work
constexpr size_t kSetupReps = 5;  ///< set-ups per run (median reported)
constexpr size_t kOutputTokens = 112;

/**
 * Prompt generator seeds of the pool. Candidates 6 and 12 are left out:
 * each meets a near-tie argmax where the FP16 datapath legitimately
 * picks another token than the float32 reference (candidate 6 at its
 * 4th generated token, candidate 12 at its 17th). Candidate 18 is left
 * out because it generates candidate 9's tokens.
 */
constexpr uint32_t kCandidates[kPoolSize] = {
    0,  1,  2,  3,  4,  5,  7,  8,  9,  10, 11, 13,
    14, 15, 16, 17, 19, 20, 21, 22, 23, 24, 25, 26};

/** Greedy-token digests of pool prompt i under kWeightSeed. */
constexpr uint64_t kDigests[kPoolSize] = {
    0xe11171b20f48ee25ull, 0x0f166cf8dc52844aull, 0xe17a6ac37a404204ull,
    0x5465d41df1dd54c0ull, 0x340008ea1f11c58cull, 0x5b5aedc814df4c35ull,
    0x22cfaa1a2199b210ull, 0x7f6b5bb886315105ull, 0x592d89902bff1a45ull,
    0x9a1a4218d6322884ull, 0x30180bbe94525285ull, 0x00e7f0bb8e747705ull,
    0x8933c82fdcf77209ull, 0x27506b2cb78bceb9ull, 0x8c92a58a3ccb9bc9ull,
    0x4e53916909ac631dull, 0x9a4317f1abb2b7e5ull, 0xe3f64340f8ea37beull,
    0xf7b77d3bb57e5445ull, 0x9793b0f65d39dc26ull, 0x884773c6df1dc887ull,
    0xf6d385e0aa7519b5ull, 0xfb90a0658e24b6e7ull, 0xe759dfbffe4ff49bull,
};

/**
 * Goodput limits: 5x the TTFT and 2x the TPOT of an unloaded 16-token
 * generation. The stream is closed-loop and never queues, so every
 * generation meets them; a modelled-hardware regression would not.
 */
constexpr SloLimits kSlo{5 * 4.73e-3, 2 * 0.305e-3};

GptConfig
model()
{
    return bench::gpt2Petite();
}

/** Pool prompt i: 12..16 tokens, so a generation takes 124..128 of
 *  the model's 128 positions. */
std::vector<int32_t>
poolPrompt(size_t i)
{
    const uint32_t c = kCandidates[i];
    Rng rng(0xdec0de00 + c);
    std::vector<int32_t> p(12 + c % 5);
    for (int32_t &t : p)
        t = static_cast<int32_t>(rng.below(model().vocabSize));
    return p;
}

DfxSystemConfig
systemConfig()
{
    DfxSystemConfig cfg;
    cfg.model = model();
    cfg.nCores = 8;
    cfg.functional = true;
    cfg.kvContexts = 1;
    cfg.nThreads = 1;
    return cfg;
}

/** One generation, measured from outside the appliance. */
struct Generation
{
    std::vector<int32_t> tokens;
    RequestResult timeline;  ///< simulated, arrival = previous finish
    TokenStats stats;        ///< summed over every step
    uint64_t steps = 0;
    double prefillHost = 0.0, decodeHost = 0.0;
};

Generation
generate(DfxAppliance &app, size_t pool_index, double arrival,
         SpanLog &spans, int64_t request)
{
    ScopedSpan whole(spans, "decode-fn.request", "request", request);
    const std::vector<int32_t> prompt = poolPrompt(pool_index);
    const size_t n_out = kOutputTokens;
    Generation g;
    const double t0 = now();
    StepOutcome pre;
    {
        ScopedSpan s(spans, "appliance.prefill", "appliance", request);
        pre = app.prefill(0, prompt);
    }
    const double t1 = now();
    g.stats.accumulate(pre.stats);
    int32_t next = pre.next;
    double generation = 0.0;
    for (size_t i = 0; i < n_out; ++i) {
        g.tokens.push_back(next);
        StepOutcome step;
        {
            ScopedSpan s(spans, "appliance.decodeStep", "appliance",
                         request);
            step = app.decodeStep(0, next);
        }
        next = step.next;
        generation += step.stats.seconds;
        g.stats.accumulate(step.stats);
    }
    g.prefillHost = t1 - t0;
    g.decodeHost = now() - t1;
    g.steps = prompt.size() + n_out;

    RequestResult &q = g.timeline;
    q.id = static_cast<uint64_t>(request);
    q.tokens = g.tokens;
    q.arrivalSeconds = arrival;
    q.admitSimSeconds = arrival;
    q.firstTokenSimSeconds = arrival +
                             app.pcieSeconds(prompt.size() * 4 + 64) +
                             pre.stats.seconds;
    q.finishSimSeconds = q.firstTokenSimSeconds + generation +
                         app.pcieSeconds(n_out * 4);
    return g;
}

}  // namespace

int
printReferenceDigests()
{
    const GptWeights weights = GptWeights::random(model(), kWeightSeed);
    ReferenceModel ref(weights);
    for (size_t i = 0; i < kPoolSize; ++i) {
        ref.reset();
        const std::vector<int32_t> tokens =
            ref.generate(poolPrompt(i), kOutputTokens);
        std::printf("%zu 0x%016" PRIx64 "\n", i, tokenDigest(tokens));
    }
    return 0;
}

void
runDecodeFn(const Options &opt, Report &report)
{
    // The seed picks the run's generation set from the pinned pool.
    std::vector<size_t> order(kPoolSize);
    for (size_t i = 0; i < kPoolSize; ++i)
        order[i] = i;
    Rng rng(opt.seed);
    for (size_t i = kPoolSize - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    order.resize(kSetSize);

    // --- set-up: weight image, construction, template warm-up ---------
    const DfxSystemConfig base = systemConfig();
    std::unique_ptr<DfxAppliance> app;
    std::shared_ptr<WeightStore> store;
    std::vector<double> setup, setup_wall, materialize;
    RefTimer timer;
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
        app.reset();
        store.reset();
        timer.start();
        store = makeWeightStore(base, kWeightSeed);
        const double m0 = now();
        store->materializeAll();
        materialize.push_back(now() - m0);
        DfxSystemConfig cfg = base;
        cfg.weightStore = store;
        app = std::make_unique<DfxAppliance>(cfg);
        app->prefill(0, {1});  // compiles every program template
        setup.push_back(timer.stop());
        setup_wall.push_back(setup.back() / timer.factor());
    }

    // --- timed phase: replay the set until the run's time is up -------
    SpanLog untraced;
    std::vector<Generation> first;
    std::vector<double> cycle_rates, wall_rates, first_gen_host;
    double prefill_host = 0.0, decode_host = 0.0;
    uint64_t prompt_tokens = 0, output_tokens = 0;
    const perf::HostStepProfile before = app->cluster().hostProfile();
    const double start = now();
    for (size_t cycle = 0; cycle < 2 || now() - start < opt.seconds;
         ++cycle) {
        timer.start();
        double arrival = 0.0;
        uint64_t tokens = 0;
        for (size_t k = 0; k < kSetSize; ++k) {
            const int64_t id = static_cast<int64_t>(cycle * kSetSize + k);
            Generation g = generate(*app, order[k], arrival, untraced, id);
            arrival = g.timeline.finishSimSeconds;
            tokens += g.steps;
            prefill_host += g.prefillHost;
            decode_host += g.decodeHost;
            prompt_tokens += poolPrompt(order[k]).size();
            output_tokens += g.tokens.size();
            report.attempted += 1;
            if (k == 0)
                first_gen_host.push_back(g.prefillHost + g.decodeHost);
            const uint64_t digest = tokenDigest(g.tokens);
            report.check(digest == kDigests[order[k]],
                         "prompt %zu: token digest 0x%016" PRIx64
                         " differs from the reference's 0x%016" PRIx64,
                         order[k], digest, kDigests[order[k]]);
            if (cycle == 0) {
                first.push_back(std::move(g));
                continue;
            }
            const RequestResult &a = first[k].timeline;
            report.check(
                g.tokens == first[k].tokens &&
                    sameBits(g.timeline.firstTokenSimSeconds,
                             a.firstTokenSimSeconds) &&
                    sameBits(g.timeline.finishSimSeconds,
                             a.finishSimSeconds) &&
                    g.stats.instructions == first[k].stats.instructions,
                "replay %zu of generation %zu did not repeat its tokens "
                "and simulated timeline bit for bit",
                cycle, k);
        }
        cycle_rates.push_back(static_cast<double>(tokens) / timer.stop());
        wall_rates.push_back(cycle_rates.back() * timer.factor());
    }
    const perf::HostStepProfile delta =
        profileDelta(app->cluster().hostProfile(), before);

    // Simulated metrics cover the first pass over the set (the replays
    // repeat it exactly).
    std::vector<ServerRequest> requests;
    std::vector<RequestResult> timelines;
    TokenStats sim_sum;
    uint64_t sim_steps = 0;
    for (const Generation &g : first) {
        requests.push_back({{}, g.tokens.size(), g.timeline.arrivalSeconds});
        timelines.push_back(g.timeline);
        sim_sum.accumulate(g.stats);
        sim_steps += g.steps;
    }
    const double makespan = timelines.back().finishSimSeconds;

    report.e2e("host_tokens_per_s", "1/s", median(cycle_rates));
    report.e2e("setup_s", "s", median(setup));
    report.e2e("peak_rss_mb", "MiB", peakRssMb());
    reportRequests(report, requests, timelines, makespan, kSlo, true);
    report.info("cycles", static_cast<double>(cycle_rates.size()));
    report.info("host_tokens_per_s_wall", median(wall_rates));
    report.info("setup_s_wall", median(setup_wall));

    if (!opt.trace)
        return;
    report.layer("model.weight_materialize_s", "s", median(materialize));
    report.layer("model.weight_image_mb", "MiB",
                 static_cast<double>(store->imageBytes()) / (1 << 20));
    report.layer("appliance.prefill_host_ms_per_token", "ms",
                 prefill_host / static_cast<double>(prompt_tokens) * 1e3);
    report.layer("appliance.decode_host_ms_per_token", "ms",
                 decode_host / static_cast<double>(output_tokens) * 1e3);
    reportHostProfile(report, delta);
    reportSimOps(report, sim_sum, sim_steps);

    // Traced pass: the set's first generation again, with the
    // simulator's unit spans on. Its slowdown against the untraced
    // passes of the same generation is the tracing overhead.
    SpanLog spans;
    spans.start(opt.traceDir + "/decode-fn.sim.json");
    const double t0 = now();
    const Generation g = generate(*app, order[0], 0.0, spans, 0);
    const double traced = now() - t0;
    const double steps = static_cast<double>(g.steps);
    report.layer("core.mpu_ms_per_step", "ms",
                 simulatorSpan("mpu").seconds / steps * 1e3);
    report.layer("core.vpu_ms_per_step", "ms",
                 simulatorSpan("vpu").seconds / steps * 1e3);
    report.layer("core.dma_ms_per_step", "ms",
                 simulatorSpan("dma").seconds / steps * 1e3);
    report.layer("network.ring_sync_ms_per_step", "ms",
                 simulatorSpan("ring-sync").seconds / steps * 1e3);
    report.layer("trace.overhead_frac", "frac",
                 1.0 - median(first_gen_host) / traced);
    report.check(spans.stop(opt.traceDir + "/decode-fn.bench.json"),
                 "cannot write the trace files under %s",
                 opt.traceDir.c_str());
    report.check(g.tokens == first[0].tokens,
                 "traced generation produced different tokens");
}

}  // namespace perfbench
