#include "bench.hpp"

#include <algorithm>
#include <cstdio>

#include "tracer.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 11;

/** @p num / @p den from raw sums (0 when there is no denominator). */
double
ratio(const Layers &raw, const char *num, const char *den, double scale = 1)
{
    auto n = raw.find(num);
    auto d = raw.find(den);
    if (n == raw.end() || d == raw.end() || d->second <= 0)
        return 0.0;
    return scale * n->second / d->second;
}

void
merge(Layers &into, const Layers &from)
{
    for (const auto &[k, v] : from)
        into[k] += v;
}

struct Pass
{
    std::vector<Round> rounds;
    double wallS = 0; ///< host time inside this pass's rounds
};

/** Run one round into @p p, timing it. */
void
timedRound(BenchWorkload &w, Pass &p)
{
    const double t0 = nowS();
    p.rounds.push_back(w.round(p.rounds.size()));
    p.wallS += nowS() - t0 - p.rounds.back().untimedS;
}

/** Rounds of one input set must agree. The pass digest is that of
 *  its first round (input set 0, which every run covers), so runs of
 *  any length compare. */
std::string
passDigest(const Pass &p, std::vector<std::string> &errors)
{
    std::map<std::size_t, std::string> bySet;
    for (const Round &r : p.rounds) {
        auto [it, fresh] = bySet.emplace(r.inputSet, r.digest);
        if (!fresh && it->second != r.digest)
            errors.push_back("simulated digest differs between rounds of "
                             "input set " + std::to_string(r.inputSet) +
                             ": " + it->second + " vs " + r.digest);
    }
    return p.rounds.front().digest;
}

} // namespace

std::uint64_t
inputSeed(std::uint64_t seed, std::size_t set)
{
    return set == 0 ? seed : seed * 16 + set;
}

const std::vector<WorkloadEntry> &
workloads()
{
    static const std::vector<WorkloadEntry> table = {
        {"live_fig6_addrcheck", makeLiveFig6},
        {"live_tso_taintcheck", makeLiveTso},
        {"remonitor", makeRemonitor},
        {"daemon_corpus", makeDaemonCorpus},
    };
    return table;
}

Layers
finalizeLayers(const Layers &raw, double rounds)
{
    // Computed from raw sums of the whole traced pass.
    const Layers computed = {
        {"capture.keep_ratio",
         ratio(raw, "capture.records", "capture.attempts")},
        {"monitor.host_ratio",
         ratio(raw, "raw.monitor.parallel_s", "raw.monitor.none_s")},
        {"accel.if.hit_ratio",
         ratio(raw, "raw.accel.if.hits", "raw.accel.if.lookups")},
        {"accel.mtlb.hit_ratio",
         ratio(raw, "raw.accel.mtlb.hits", "raw.accel.mtlb.lookups")},
        {"accel.events_per_record",
         ratio(raw, "raw.accel.events", "raw.accel.records")},
        {"lifeguard.handle.ns_per_call",
         ratio(raw, "lifeguard.handle.host_s", "lifeguard.handle.calls",
               1e9)},
        {"core.ns_per_retired",
         ratio(raw, "raw.core.live_run_s", "raw.core.live_retired", 1e9)},
        {"core.ns_per_record",
         ratio(raw, "raw.core.replay_run_s", "raw.core.replay_records",
               1e9)},
        {"core.lg_threads.gain_live",
         ratio(raw, "raw.gain_live.serial_s", "raw.gain_live.concurrent_s")},
        {"core.lg_threads.gain_replay",
         ratio(raw, "raw.gain_replay.serial_s",
               "raw.gain_replay.concurrent_s")},
    };
    Layers out;
    for (const auto &[name, v] : raw)
        if (name.rfind("raw.", 0) != 0)
            out[name] = v / rounds;
    for (const auto &[name, v] : computed)
        if (v != 0)
            out[name] = v;
    return out;
}

Report
runBenchmark(const Options &opt)
{
    Report rep;
    std::unique_ptr<BenchWorkload> w;
    const std::string &name = opt.workload;
    for (const WorkloadEntry &e : workloads())
        if (name == e.name)
            w = e.make(opt);
    if (!w) {
        rep.correct = false;
        rep.errors.push_back("unknown workload '" + name + "'");
        return rep;
    }
    tracer().clear(); // spans of an earlier run in this process

    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        const double t0 = nowS();
        w->setup();
        setups.push_back(nowS() - t0);
    }

    // Untraced rounds give the end-to-end metrics. The traced run
    // alternates untraced and traced rounds (untraced first), so both
    // sides see the same warm-up and the same host drift, and splits
    // the run's time between them. The run's time counts timed work
    // only: one-time reference runs do not eat into it.
    Pass plain, traced;
    do {
        timedRound(*w, plain);
        if (opt.trace) {
            tracer().setEnabled(true);
            timedRound(*w, traced);
            tracer().setEnabled(false);
        }
    } while (plain.wallS + traced.wallS < opt.seconds ||
             plain.rounds.size() < w->minRounds());

    // Keyed samples: throughput over all keys from per-key median
    // times. Otherwise: the median of per-round rates. Latency
    // percentiles pool every timed run or request of the pass.
    std::map<std::string, std::vector<const Sample *>> byKey;
    std::vector<double> rates;
    std::vector<double> lat;
    for (const Round &r : plain.rounds) {
        for (const Sample &smp : r.samples)
            byKey[smp.key].push_back(&smp);
        if (r.samples.empty() && r.hostS > 0)
            rates.push_back(r.units / r.hostS);
        lat.insert(lat.end(), r.latMs.begin(), r.latMs.end());
        rep.attempted += r.attempted;
        rep.failed += r.failed;
        rep.knownDefects += r.knownDefects;
        rep.errors.insert(rep.errors.end(), r.errors.begin(),
                          r.errors.end());
    }
    double keyUnits = 0, keyS = 0;
    std::size_t failedKeys = 0;
    for (const auto &[key, v] : byKey) {
        if (std::any_of(v.begin(), v.end(),
                        [](const Sample *x) { return x->failed; })) {
            ++failedKeys;
            continue;
        }
        if (v.front()->untimed)
            continue;
        std::vector<double> host;
        for (const Sample *smp : v) {
            host.push_back(smp->hostS);
            lat.push_back(smp->latMs);
        }
        keyUnits += v.front()->units;
        keyS += median(host);
    }
    if (keyS > 0)
        rates.push_back(keyUnits / keyS);
    rep.rounds = plain.rounds.size();
    rep.latencySamples = lat.size();
    rep.p90Beyond = samplesBeyond(lat.size(), 90);
    rep.digest = passDigest(plain, rep.errors);
    rep.csv = plain.rounds.front().csv;

    const double throughput = median(rates);
    const double p50 = percentile(lat, 50);
    const double p90 = percentile(lat, 90);
    const double fail_ratio =
        !byKey.empty() ? static_cast<double>(failedKeys) /
                             static_cast<double>(byKey.size())
        : rep.attempted ? static_cast<double>(rep.failed) /
                              static_cast<double>(rep.attempted)
                        : 1.0;

    if (!opt.trace) {
        rep.metrics = {
            {"setup_s", median(setups)},
            {"throughput_per_s", throughput},
            {"latency_ms_p50", p50},
            {"latency_ms_p90", p90},
            {"success_ratio", 1.0 - fail_ratio},
            {"peak_rss_mb", peakRssMb()},
        };
    } else {
        Layers extra;
        tracer().setEnabled(true);
        w->tracedExtras(extra);
        tracer().setEnabled(false);

        Layers traw;
        for (const Round &r : traced.rounds) {
            merge(traw, r.layers);
            rep.errors.insert(rep.errors.end(), r.errors.begin(),
                              r.errors.end());
        }
        rep.tracedDigest = passDigest(traced, rep.errors);
        // Traced round i ran the inputs of untraced round i.
        for (std::size_t i = 0; i < traced.rounds.size(); ++i) {
            if (traced.rounds[i].digest != plain.rounds[i].digest)
                rep.errors.push_back(
                    "traced round " + std::to_string(i) + " digest " +
                    traced.rounds[i].digest + " differs from untraced " +
                    plain.rounds[i].digest);
        }

        const auto &agg = tracer().aggregates();
        if (auto it = agg.find("take"); it != agg.end()) {
            traw["workloads.take.host_s"] += it->second.totalS;
            traw["workloads.take.calls"] +=
                static_cast<double>(it->second.calls);
        }
        if (auto it = agg.find("handle"); it != agg.end()) {
            traw["lifeguard.handle.host_s"] += it->second.totalS;
            traw["lifeguard.handle.calls"] +=
                static_cast<double>(it->second.calls);
        }
        const double n = static_cast<double>(traced.rounds.size());
        // finalizeLayers averages per round. Self times are totals of
        // the traced run and the extras are per probe, so scale them up
        // to come out unaveraged.
        for (const auto &[k, v] : tracer().selfTimes())
            traw["self_s." + k] += v * n;
        for (const auto &[k, v] : extra)
            traw[k] += v * n;

        rep.metrics = finalizeLayers(traw, n);
        if (name.rfind("live_", 0) == 0)
            rep.metrics["sim_minst_per_s"] = throughput / 1e6;
        if (name == "remonitor")
            rep.metrics["replay_mrec_per_s"] = throughput / 1e6;
        if (name == "daemon_corpus") {
            rep.metrics["verdict_ms_p50"] = p50;
            rep.metrics["verdict_ms_p90"] = p90;
            rep.metrics["max_jobs_per_s"] = throughput;
        }
        rep.metrics["fail_ratio"] = fail_ratio;
        rep.metrics["latency.samples"] = static_cast<double>(lat.size());
        rep.metrics["tracing.overhead_s"] = traced.wallS - plain.wallS;
        rep.metrics["tracing.overhead_ratio"] =
            plain.wallS > 0 ? (traced.wallS - plain.wallS) / plain.wallS
                            : 0.0;
        rep.metrics["tracing.spans"] =
            static_cast<double>(tracer().spanCount());

        const std::string spans = opt.runDir + "/spans-" + name + "-" +
                                  std::to_string(opt.seed) + ".jsonl";
        if (!tracer().write(spans))
            rep.errors.push_back("cannot write " + spans);
        else
            std::printf("spans: %s\n", spans.c_str());
    }

    rep.correct = rep.errors.empty();
    return rep;
}

} // namespace perfbench
