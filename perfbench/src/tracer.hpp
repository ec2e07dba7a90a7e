/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded from
 * the benchmark's own files, around its calls into each library layer
 * (cell -> ctor/run -> take/handle/scan/record/submit), each with the
 * id of the span that caused it. Per-event boundaries (`take`,
 * `handle`) fire millions of times per run, so they are aggregated as
 * count + total instead of stored one by one; their time is charged
 * to the enclosing span as child time.
 *
 * Single-threaded by design: every boundary it times runs on the
 * benchmark's main thread (serial engines, the concurrent live
 * engine's producer side, the daemon generator).
 */

#ifndef PERFBENCH_TRACER_HPP
#define PERFBENCH_TRACER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        std::uint32_t id = 0;
        std::uint32_t parent = 0; ///< 0 = root
        std::string name;
        std::string label;
        double start = 0;
        double end = 0;
        double eventS = 0; ///< time inside aggregated events
    };

    struct Aggregate
    {
        std::uint64_t calls = 0;
        double totalS = 0;
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Open a span under the innermost open one; returns its id. A
     * @p nested span becomes the parent of spans opened after it; a
     * non-nested one (an upload among several in flight) does not, and
     * may close in any order.
     */
    std::uint32_t open(const char *name, std::string label = {},
                       bool nested = true);
    void close(std::uint32_t id);

    /** One occurrence of an aggregated per-event boundary. */
    void event(const char *name, double seconds);

    /** Self time per span/event name: duration minus the time covered
     *  by its children (the union of their intervals, which may
     *  overlap) and by aggregated events. */
    std::map<std::string, double> selfTimes() const;

    const std::map<std::string, Aggregate> &aggregates() const
    {
        return aggregates_;
    }
    std::size_t spanCount() const { return spans_.size(); }

    /** Write every span and aggregate as JSON lines; false on I/O
     *  error. */
    bool write(const std::string &path) const;

    /** Forget every span and aggregate (a new run in this process). */
    void clear();

  private:
    /** Per span: time covered by its children and events. */
    std::vector<double> coveredByChildren() const;

    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> openStack_;
    std::map<std::string, Aggregate> aggregates_;
};

/** The process-wide tracer (disabled unless the traced pass runs). */
Tracer &tracer();

/** RAII span; a no-op while the tracer is disabled. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, std::string label = {})
    {
        if (tracer().enabled())
            id_ = tracer().open(name, std::move(label));
    }
    ~SpanScope()
    {
        if (id_)
            tracer().close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    std::uint32_t id_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HPP
