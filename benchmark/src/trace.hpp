#pragma once

/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are opened by the harness around each call it makes into a layer
 * (model, serve, sim, daemon); nothing inside the program is
 * instrumented. Every call the harness times goes through a Span, which
 * measures its duration whether or not recording is on, so the traced and
 * untraced runs time the same way and differ only by the recording cost.
 * All spans are opened on the harness's main thread, so the recorder
 * needs no locking and children nest strictly inside their parent.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

/** One closed span. */
struct SpanRecord
{
    const char *name = "";
    int64_t start_ns = 0; ///< since process start
    int64_t end_ns = 0;
    int32_t parent = -1; ///< index of the enclosing span, -1 at top level
    int64_t op = -1;     ///< op the span belongs to, -1 outside any op
};

/** Nanoseconds since process start (steady clock). */
int64_t nowNs();

/** The process-wide recorder. */
class Tracer
{
  public:
    static Tracer &get();

    void setEnabled(bool on) { enabled_ = on; }

    /** Op id stamped on spans opened from now on (-1 = none). */
    void setOp(int64_t op) { op_ = op; }

    /** Index of a new, still open span (-1 when recording is off). */
    int32_t open(const char *name, int64_t start_ns);
    void close(int32_t index, int64_t end_ns);

    /** Self time (duration minus direct children), summed per name. */
    std::map<std::string, double> selfSeconds() const;

    /** Total duration, summed per name. */
    std::map<std::string, double> totalSeconds() const;

    /** Chrome trace-event JSON (loads in Perfetto / chrome://tracing). */
    std::string chromeJson() const;

  private:
    bool enabled_ = false;
    int64_t op_ = -1;
    int32_t top_ = -1; ///< innermost open span
    std::vector<SpanRecord> spans_;
};

/** RAII span: times the enclosing scope and records it when tracing. */
class Span
{
  public:
    explicit Span(const char *name)
        : start_ns_(nowNs()), index_(Tracer::get().open(name, start_ns_))
    {
    }
    ~Span() { stop(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close the span (first call only); @return its duration in seconds. */
    double stop();

  private:
    int64_t start_ns_;
    int32_t index_;
    int64_t end_ns_ = -1;
};

} // namespace bench
