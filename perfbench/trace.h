/**
 * @file
 * In-memory span recorder of the end-to-end benchmark.
 *
 * A span is one call into a library layer, timed from outside the
 * library: a name, start and end on the steady clock, and the index of
 * the enclosing span (-1 for a root). Spans stay in memory and are
 * written out when the run ends. A disabled recorder records nothing,
 * so untraced and traced passes run the same code.
 */
#ifndef MANTA_PERFBENCH_TRACE_H
#define MANTA_PERFBENCH_TRACE_H

#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = "";  ///< A string literal.
    int parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int
    open(const char *name)
    {
        if (!enabled_)
            return -1;
        spans_.push_back(Span{name, current_, now(), 0});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void
    close(int index)
    {
        if (index < 0)
            return;
        spans_[static_cast<std::size_t>(index)].endNs = now();
        current_ = spans_[static_cast<std::size_t>(index)].parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

  private:
    using Clock = std::chrono::steady_clock;

    bool enabled_ = false;
    int current_ = -1;
    std::vector<Span> spans_;
    Clock::time_point epoch_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name)
        : tracer_(tracer), index_(tracer.open(name))
    {}
    ~Scope() { tracer_.close(index_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

/** Bytes the allocator has handed out and not yet taken back. */
inline std::int64_t
heapInUse()
{
    const struct mallinfo2 info = mallinfo2();
    return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

} // namespace perfbench

#endif // MANTA_PERFBENCH_TRACE_H
