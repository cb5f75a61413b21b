#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace bench {

int64_t
nowNs()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

int32_t
Tracer::open(const char *name, int64_t start_ns)
{
    if (!enabled_) return -1;
    SpanRecord rec;
    rec.name = name;
    rec.start_ns = start_ns;
    rec.parent = top_;
    rec.op = op_;
    spans_.push_back(rec);
    top_ = int32_t(spans_.size()) - 1;
    return top_;
}

void
Tracer::close(int32_t index, int64_t end_ns)
{
    if (index < 0) return;
    spans_[size_t(index)].end_ns = end_ns;
    top_ = spans_[size_t(index)].parent;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<int64_t> self(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
        self[i] += dur;
        if (spans_[i].parent >= 0) self[size_t(spans_[i].parent)] -= dur;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].name] += double(self[i]) * 1e-9;
    }
    return out;
}

std::map<std::string, double>
Tracer::totalSeconds() const
{
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].name] +=
            double(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    }
    return out;
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                      "\"parent\":%d,\"op\":%lld}}%s\n",
                      s.name, double(s.start_ns) * 1e-3,
                      double(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                      static_cast<long long>(s.op),
                      i + 1 < spans_.size() ? "," : "");
        out += buf;
    }
    out += "]}\n";
    return out;
}

double
Span::stop()
{
    if (end_ns_ < 0) {
        end_ns_ = nowNs();
        Tracer::get().close(index_, end_ns_);
    }
    return double(end_ns_ - start_ns_) * 1e-9;
}

} // namespace bench
