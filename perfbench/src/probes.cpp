#include "probes.hpp"

#include <cctype>
#include <cstdio>
#include <memory>
#include <optional>

#include "core/platform.hpp"
#include "core/timesliced.hpp"
#include "lifeguard/addrcheck.hpp"
#include "lifeguard/lockset.hpp"
#include "lifeguard/memcheck.hpp"
#include "lifeguard/taintcheck.hpp"
#include "tracer.hpp"
#include "util.hpp"

namespace perfbench {

using namespace paralog;

namespace {

/** Times ThreadProgram::take, the only generator entry point the
 *  application cores call. */
class TimedProgram : public ThreadProgram
{
  public:
    explicit TimedProgram(ThreadProgramPtr inner) : inner_(std::move(inner))
    {
    }

    std::optional<Inst>
    next(ThreadContext &tc) override
    {
        return inner_->next(tc);
    }

    std::size_t
    take(std::vector<Inst> &out, ThreadContext &tc) override
    {
        const double t0 = nowS();
        std::size_t n = inner_->take(out, tc);
        tracer().event("take", nowS() - t0);
        return n;
    }

  private:
    ThreadProgramPtr inner_;
};

class TimedWorkload : public Workload
{
  public:
    explicit TimedWorkload(WorkloadKind kind) : inner_(makeWorkload(kind)) {}

    const char *name() const override { return inner_->name(); }

    ThreadProgramPtr
    makeThread(ThreadId tid, const WorkloadEnv &env) const override
    {
        return std::make_unique<TimedProgram>(inner_->makeThread(tid, env));
    }

  private:
    std::unique_ptr<Workload> inner_;
};

/** Subclass decorator: the stock lifeguard with handle() timed. */
template <typename L>
class TimedLifeguard : public L
{
  public:
    using L::L;

    void
    handle(const LgEvent &ev, LgContext &ctx) override
    {
        const double t0 = nowS();
        L::handle(ev, ctx);
        tracer().event("handle", nowS() - t0);
    }
};

LifeguardPtr
makeTimedLifeguard(LifeguardKind kind, std::uint32_t k,
                   std::uint32_t shards)
{
    switch (kind) {
      case LifeguardKind::kTaintCheck:
        return std::make_unique<TimedLifeguard<TaintCheck>>(k, shards);
      case LifeguardKind::kAddrCheck:
        return std::make_unique<TimedLifeguard<AddrCheck>>(k, shards);
      case LifeguardKind::kMemCheck:
        return std::make_unique<TimedLifeguard<MemCheck>>(k, shards);
      case LifeguardKind::kLockSet:
        return std::make_unique<TimedLifeguard<LockSet>>(k, shards);
    }
    return nullptr;
}

std::string
lower(const char *s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** The CLI's workload flag names (toString abbreviates). */
const char *
workloadFlag(WorkloadKind w)
{
    switch (w) {
      case WorkloadKind::kBarnes: return "barnes";
      case WorkloadKind::kLu: return "lu";
      case WorkloadKind::kOcean: return "ocean";
      case WorkloadKind::kFmm: return "fmm";
      case WorkloadKind::kRadiosity: return "radiosity";
      case WorkloadKind::kBlackscholes: return "blackscholes";
      case WorkloadKind::kFluidanimate: return "fluidanimate";
      case WorkloadKind::kSwaptions: return "swaptions";
    }
    return "?";
}

const char *
modeFlag(MonitorMode m)
{
    switch (m) {
      case MonitorMode::kNoMonitoring: return "none";
      case MonitorMode::kTimesliced: return "timesliced";
      case MonitorMode::kParallel: return "parallel";
    }
    return "?";
}

/** StatSets of a finished Platform (monitoring components exist only
 *  in parallel mode). */
void
addPlatformStats(Platform &p, std::uint32_t k, bool monitoring,
                 Layers &L)
{
    const StatSet &mem = p.memory().stats;
    L["mem.reads"] += mem.get("reads");
    L["mem.writes"] += mem.get("writes");
    L["mem.c2c_transfers"] += mem.get("c2c_transfers");
    L["mem.upgrades"] += mem.get("upgrades");
    if (!monitoring)
        return;
    for (ThreadId t = 0; t < k; ++t) {
        const StatSet &c = p.capture(t).stats;
        const double records = c.get("records");
        L["capture.records"] += records;
        L["capture.attempts"] += records + c.get("filtered");
        L["capture.records_with_arcs"] += c.get("records_with_arcs");
        L["capture.ca_records"] += c.get("ca_records");
        L["capture.produce_versions"] += c.get("produce_versions");
        L["capture.consume_versions"] += c.get("consume_versions");

        LifeguardCore &lg = p.lifeguardCore(t);
        const StatSet &e = lg.enforcer().stats;
        L["deliver.delivered"] += e.get("delivered");
        L["deliver.dep_stalls"] += e.get("dep_stalls");
        L["deliver.version_stalls"] += e.get("version_stalls");
        L["deliver.ca_wait_cycles"] += e.get("ca_wait_cycles");

        const StatSet &it = lg.accel().it().stats;
        L["accel.it.absorbed"] +=
            it.get("absorbed_loads") + it.get("absorbed_movs") +
            it.get("absorbed_alu") + it.get("absorbed_jumps");
        const StatSet &f = lg.accel().ifilter().stats;
        L["raw.accel.if.hits"] += f.get("hits");
        L["raw.accel.if.lookups"] += f.get("hits") + f.get("misses");
        const StatSet &tlb = lg.accel().mtlb().stats;
        L["raw.accel.mtlb.hits"] += tlb.get("hits");
        L["raw.accel.mtlb.lookups"] +=
            tlb.get("hits") + tlb.get("misses");
    }
    L["lifeguard.shadow.bytes"] +=
        static_cast<double>(p.lifeguard().shadow().bytesAllocated());
}

} // namespace

const char *
liveEngine(const LiveCell &cell)
{
    if (cell.mode == MonitorMode::kTimesliced)
        return "timesliced";
    if (cell.mode == MonitorMode::kParallel && cell.opt.lgThreads >= 2)
        return "concurrent_live";
    return "serial_live";
}

std::string
cellLabel(const LiveCell &cell)
{
    std::string label = workloadFlag(cell.workload);
    label += '/';
    label += modeFlag(cell.mode);
    label += '/';
    label += std::to_string(cell.cores);
    return label;
}

void
addRunResult(const RunResult &r, Layers &L, bool app)
{
    for (std::size_t i = 0; app && i < r.app.size(); ++i) {
        const AppThreadStats &a = r.app[i];
        L["app.retired"] += static_cast<double>(a.retired);
        L["app.stall.log_full_cycles"] += static_cast<double>(a.logFullStall);
        L["app.stall.drain_cycles"] += static_cast<double>(a.drainStall);
        L["app.stall.store_buf_cycles"] +=
            static_cast<double>(a.storeBufStall);
    }
    for (const LifeguardThreadStats &l : r.lifeguard) {
        L["lg.useful_cycles"] += static_cast<double>(l.usefulCycles);
        L["lg.dep_stall_cycles"] += static_cast<double>(l.depStallTotal());
        L["lg.app_stall_cycles"] += static_cast<double>(l.appStall);
        L["raw.accel.events"] += static_cast<double>(l.eventsHandled);
        L["raw.accel.records"] += static_cast<double>(l.recordsProcessed);
    }
    L["lifeguard.versions.produced"] +=
        static_cast<double>(r.versionsProduced);
    L["lifeguard.versions.consumed"] +=
        static_cast<double>(r.versionsConsumed);
}

void
digestFull(Digest &d, const RunResult &r)
{
    d.add(r.totalCycles);
    for (const AppThreadStats &a : r.app) {
        for (std::uint64_t v :
             {a.execCycles, a.logFullStall, a.lockStall, a.barrierStall,
              a.drainStall, a.caAckCycles, a.storeBufStall, a.retired,
              a.programInsts, a.doneAt})
            d.add(v);
    }
    for (const LifeguardThreadStats &l : r.lifeguard) {
        for (std::uint64_t v :
             {l.usefulCycles, l.depStall, l.caStall, l.versionStall,
              l.appStall, l.recordsProcessed, l.eventsHandled, l.doneAt})
            d.add(v);
    }
    for (std::uint64_t v :
         {r.violationCount, r.versionsProduced, r.versionsConsumed,
          r.versionStallRetries, r.shadowFingerprint,
          r.violationFingerprint})
        d.add(v);
}

std::string
csvRow(const LiveCell &cell, const RunResult &r)
{
    std::uint64_t records = 0, useful = 0, dep = 0, app_stall = 0;
    for (const LifeguardThreadStats &l : r.lifeguard) {
        records += l.recordsProcessed;
        useful += l.usefulCycles;
        dep += l.depStallTotal();
        app_stall += l.appStall;
    }
    const std::uint64_t cols[] = {
        r.totalCycles, r.appExecTotal(), r.retiredTotal(), records,
        r.eventsHandledTotal(), useful, dep, app_stall, r.violationCount,
        r.versionsProduced, r.versionsConsumed, r.versionStallRetries};
    std::string row = workloadFlag(cell.workload);
    row += ',';
    row += cell.mode == MonitorMode::kNoMonitoring
               ? std::string("-")
               : lower(toString(cell.lifeguard));
    for (const char *col :
         {modeFlag(cell.mode), "", cell.opt.accelerators ? "on" : "off",
          cell.opt.depTracking == DepTracking::kPerBlock ? "per-block"
                                                         : "per-core"}) {
        row += ',';
        row += *col ? std::string(col) : std::to_string(cell.cores);
    }
    row += ',';
    row += lower(toString(cell.opt.memoryModel));
    row += ',';
    row += std::to_string(cell.opt.scale);
    for (std::uint64_t v : cols) {
        row += ',';
        row += std::to_string(v);
    }
    return row;
}

CellOutcome
runLiveCell(const LiveCell &cell, Layers &L)
{
    CellOutcome out;
    const bool traced = tracer().enabled();
    SpanScope cell_span("cell", cellLabel(cell));
    PlatformConfig cfg = makeConfig(cell.workload, cell.lifeguard,
                                    cell.mode, cell.cores, cell.opt);
    const bool parallel = cell.mode == MonitorMode::kParallel;
    if (traced) {
        cfg.customWorkload = std::make_shared<TimedWorkload>(cell.workload);
        if (parallel && cfg.lgThreads < 2) {
            const LifeguardKind kind = cell.lifeguard;
            const std::uint32_t shards =
                cfg.sim.effectiveShadowShards(cell.cores);
            cfg.customLifeguard = [kind, shards](std::uint32_t k) {
                return makeTimedLifeguard(kind, k, shards);
            };
        }
    }
    auto take_total = [] {
        auto it = tracer().aggregates().find("take");
        return it == tracer().aggregates().end() ? 0.0 : it->second.totalS;
    };

    const double take0 = take_total();
    try {
        std::unique_ptr<Platform> platform;
        std::unique_ptr<Timesliced> ts;
        {
            SpanScope s("ctor");
            const double t0 = nowS();
            if (cell.mode == MonitorMode::kTimesliced)
                ts = std::make_unique<Timesliced>(cfg);
            else
                platform = std::make_unique<Platform>(cfg);
            out.ctorS = nowS() - t0;
        }
        {
            SpanScope s("run", liveEngine(cell));
            const double t0 = nowS();
            out.result = ts ? ts->run() : platform->run();
            out.runS = nowS() - t0;
        }
        if (platform) {
            addPlatformStats(*platform, cell.cores, parallel, L);
            if (parallel) {
                const ShadowMemory &sh = platform->lifeguard().shadow();
                out.shadowFp =
                    shadowFingerprint(sh, AddressLayout::kHeapBase,
                                      1 << 20) ^
                    shadowFingerprint(sh, AddressLayout::kGlobalBase,
                                      1 << 16);
            }
        } else {
            L["lifeguard.shadow.bytes"] += static_cast<double>(
                ts->lifeguard().shadow().bytesAllocated());
        }
    } catch (const std::exception &e) {
        out.failed = true;
        out.error = e.what();
    }
    out.takeS = take_total() - take0;

    L["core.ctor.host_s"] += out.ctorS;
    if (!out.failed) {
        addRunResult(out.result, L);
        L[std::string("core.run.host_s.") + liveEngine(cell)] += out.runS;
        L["raw.core.live_run_s"] += out.runS;
        L["raw.core.live_retired"] +=
            static_cast<double>(out.result.retiredTotal());
        if (cell.mode == MonitorMode::kNoMonitoring)
            L["app.host_s"] += out.runS - out.takeS;
    }
    return out;
}

} // namespace perfbench
