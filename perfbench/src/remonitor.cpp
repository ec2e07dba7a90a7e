/**
 * @file
 * remonitor: record once, re-monitor many. Set-up records two live
 * TaintCheck runs per input set; each round replays both recordings of
 * one set five ways. No
 * application, memory or workload layer runs in a round, so only trace
 * decode, delivery, accelerators and lifeguards move it.
 */

#include <cstdio>

#include "bench.hpp"
#include "core/replay.hpp"
#include "probes.hpp"
#include "trace/format.hpp"
#include "trace/trace_reader.hpp"
#include "tracer.hpp"
#include "util.hpp"

namespace perfbench {

using namespace paralog;

namespace {

struct Recording
{
    RunSpec spec;
    std::string label;
};

struct Replay
{
    std::size_t recording;
    bool sameLifeguard;
    LifeguardKind lifeguard;
    std::uint32_t lgThreads;
    std::string label;
};

class Remonitor : public BenchWorkload
{
  public:
    /// Rounds cycle through recordings made from four seed-derived
    /// inputs, so one run's figures average over inputs, and the tail
    /// percentiles are taken over 32 replays rather than a handful.
    static constexpr std::size_t kInputSets = 4;

    /// One thread while tracing, every host core otherwise (see
    /// live_fig6_addrcheck).
    explicit Remonitor(const Options &opt)
        : opt_(opt), pool_(opt.trace ? 1 : hostThreads())
    {
        for (std::size_t set = 0; set < kInputSets; ++set) {
            const std::string stem =
                opt.runDir + "/remonitor-" + std::to_string(opt.seed) + "-" +
                std::to_string(set);
            RunSpec fl{};
            fl.workload = WorkloadKind::kFluidanimate;
            fl.lifeguard = LifeguardKind::kTaintCheck;
            fl.mode = MonitorMode::kParallel;
            fl.cores = 4;
            fl.opt.scale = opt.smoke ? 5000 : 50000;
            fl.opt.seed = inputSeed(opt.seed, set);
            fl.recordPath = stem + "-fluidanimate-sc.v1.trace";
            fl.recordFormat = trace::kFormatVersion;

            // Ocean at twice the scale journals about as many records
            // as fluidanimate.
            RunSpec oc = fl;
            oc.workload = WorkloadKind::kOcean;
            oc.opt.scale *= 2;
            oc.opt.memoryModel = MemoryModel::kTSO;
            oc.recordPath = stem + "-ocean-tso.v2.trace";
            oc.recordFormat = trace::kFormatVersionV2;

            std::vector<Replay> replays;
            for (const auto &[spec, label] :
                 {std::pair{fl, "fluidanimate-sc-v1"},
                  std::pair{oc, "ocean-tso-v2"}}) {
                const std::size_t rec = recordings_.size();
                recordings_.push_back({spec, label});
                replays.push_back({rec, true, LifeguardKind::kTaintCheck, 0,
                                   std::string(label) + "/same/serial"});
                replays.push_back({rec, true, LifeguardKind::kTaintCheck, 2,
                                   std::string(label) + "/same/lg2"});
                for (LifeguardKind k :
                     {LifeguardKind::kAddrCheck, LifeguardKind::kMemCheck,
                      LifeguardKind::kLockSet}) {
                    replays.push_back({rec, false, k, 0,
                                       std::string(label) + "/" +
                                           toString(k)});
                }
            }
            sets_.push_back(std::move(replays));
        }
    }

    std::size_t minRounds() const override { return kInputSets; }

    void
    setup() override
    {
        pool_.run(recordings_.size(), [&](std::size_t i) {
            recordExperiment(recordings_[i].spec);
        });
    }

    Round
    round(std::size_t index) override
    {
        Round r;
        r.inputSet = index % kInputSets;
        const std::vector<Replay> &replays = sets_[r.inputSet];
        // Serial-engine replays run on every host core, like the
        // daemon's workers; a --lg-threads=2 replay uses three host
        // threads by itself, so those run one at a time.
        std::vector<Outcome> outs(replays.size());
        std::vector<std::size_t> serial;
        for (std::size_t i = 0; i < replays.size(); ++i) {
            if (replays[i].lgThreads >= 2)
                outs[i] = replayOne(replays[i]);
            else
                serial.push_back(i);
        }
        pool_.run(serial.size(), [&](std::size_t k) {
            outs[serial[k]] = replayOne(replays[serial[k]]);
        });
        Digest d;
        for (std::size_t i = 0; i < replays.size(); ++i)
            fold(replays[i], outs[i], r, d);
        r.digest = d.hex();
        return r;
    }

    void
    tracedExtras(Layers &x) override
    {
        // Recording cost: the fluidanimate cell recorded again, as v2,
        // against the same cell run without a recorder.
        RunSpec v2 = recordings_[0].spec;
        v2.recordPath = opt_.runDir + "/remonitor-" +
                        std::to_string(opt_.seed) +
                        "-fluidanimate-sc.v2.trace";
        v2.recordFormat = trace::kFormatVersionV2;
        double rec_s = 0, plain_s = 0;
        {
            SpanScope s("record", "fluidanimate-sc-v2");
            const double t0 = nowS();
            recordExperiment(v2);
            rec_s = nowS() - t0;
        }
        {
            SpanScope s("run", "fluidanimate-sc-plain");
            RunSpec plain = v2;
            plain.recordPath.clear();
            const double t0 = nowS();
            runSpecExperiment(plain);
            plain_s = nowS() - t0;
        }
        x["trace.record.host_s"] = rec_s - plain_s;

        // Decode cost per container, same recording in both.
        scan(recordings_[0].spec.recordPath, "v1", x);
        scan(v2.recordPath, "v2", x);
    }

  private:
    void
    scan(const std::string &path, const std::string &tag, Layers &x)
    {
        SpanScope s("scan", tag);
        const double t0 = nowS();
        trace::TraceReader reader(path);
        std::uint64_t ops = 0;
        if (reader.ok()) {
            trace::TraceOp op;
            for (std::uint32_t t = 0; t < reader.config().appThreads; ++t) {
                trace::TraceReader::OpStream st = reader.opStream(t);
                while (st.next(op))
                    ++ops;
            }
        }
        const double dt = nowS() - t0;
        x["trace.scan.host_s." + tag] = dt;
        x["trace.scan.mops_per_s." + tag] =
            dt > 0 ? static_cast<double>(ops) / dt / 1e6 : 0.0;
        x["trace.bytes_per_record." + tag] =
            reader.totalRecords()
                ? static_cast<double>(reader.fileBytes()) /
                      static_cast<double>(reader.totalRecords())
                : 0.0;
    }

    /** What one replay produced. */
    struct Outcome
    {
        RunResult res;
        std::string error; ///< non-empty when it failed
        double ctorS = 0;
        double runS = 0;
        std::uint64_t records = 0;
        std::uint64_t shadowBytes = 0;
        bool concurrent = false;
    };

    Outcome
    replayOne(const Replay &rp) const
    {
        SpanScope cell("cell", rp.label);
        ReplayConfig cfg;
        cfg.path = recordings_[rp.recording].spec.recordPath;
        cfg.lgThreads = rp.lgThreads;
        if (!rp.sameLifeguard) {
            cfg.lifeguardOverride = true;
            cfg.lifeguard = rp.lifeguard;
        }
        Outcome o;
        try {
            std::unique_ptr<ReplayPlatform> p;
            {
                SpanScope s("ctor");
                const double t0 = nowS();
                p = std::make_unique<ReplayPlatform>(cfg);
                o.ctorS = nowS() - t0;
            }
            o.concurrent = p->concurrent();
            {
                // Same-lifeguard replays self-check against the
                // recorded footer inside run() and panic on divergence.
                SpanScope s("run", o.concurrent ? "concurrent_replay"
                                                : "serial_replay");
                const double t0 = nowS();
                o.res = p->run();
                o.runS = nowS() - t0;
            }
            o.records = p->reader().totalRecords();
            o.shadowBytes = p->lifeguard().shadow().bytesAllocated();
        } catch (const std::exception &e) {
            o.error = e.what();
            if (o.error.empty())
                o.error = "replay failed";
        }
        return o;
    }

    /** Add replay @p rp's outcome to round @p r, in replay order. */
    static void
    fold(const Replay &rp, const Outcome &o, Round &r, Digest &d)
    {
        const std::string key = std::to_string(r.inputSet) + "/" + rp.label;
        ++r.attempted;
        d.add(rp.label);
        if (!o.error.empty()) {
            ++r.failed;
            r.samples.push_back({key, 0, 0, 0, true});
            r.errors.push_back(rp.label + ": " + o.error);
            d.add("failed");
            return;
        }
        const RunResult &res = o.res;
        if (o.concurrent) {
            // The concurrent engine guarantees analysis results only.
            d.add(res.shadowFingerprint);
            d.add(res.violationFingerprint);
            d.add(res.versionsProduced);
            d.add(res.versionsConsumed);
            for (const LifeguardThreadStats &l : res.lifeguard)
                d.add(l.recordsProcessed);
        } else {
            digestFull(d, res);
        }
        // The end-to-end figures cover the serial-engine replays. The
        // concurrent engine's host time swings by about 15% from run to
        // run on a shared 4-core host, more than any bound could hold;
        // its replays are checked, counted and reported per layer
        // (core.run.host_s.concurrent_replay, core.lg_threads.gain_replay).
        // Latency is scaled to a 1M-record journal: the two recordings
        // differ in length.
        const double records = static_cast<double>(o.records);
        r.samples.push_back({key, records, o.ctorS + o.runS,
                             (o.ctorS + o.runS) * 1e3 * 1e6 / records,
                             false, o.concurrent});
        r.layers["lifeguard.shadow.bytes"] +=
            static_cast<double>(o.shadowBytes);
        addRunResult(res, r.layers, false);
        r.layers["core.ctor.host_s"] += o.ctorS;
        r.layers[o.concurrent ? "core.run.host_s.concurrent_replay"
                              : "core.run.host_s.serial_replay"] += o.runS;
        r.layers["raw.core.replay_run_s"] += o.runS;
        r.layers["raw.core.replay_records"] += records;
        if (rp.sameLifeguard)
            r.layers[o.concurrent ? "raw.gain_replay.concurrent_s"
                                  : "raw.gain_replay.serial_s"] += o.runS;
    }

    Options opt_;
    WorkerPool pool_;
    std::vector<Recording> recordings_;
    std::vector<std::vector<Replay>> sets_; ///< replays per input set
};

} // namespace

std::unique_ptr<BenchWorkload>
makeRemonitor(const Options &opt)
{
    return std::make_unique<Remonitor>(opt);
}

} // namespace perfbench
