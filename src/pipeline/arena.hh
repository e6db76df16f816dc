/**
 * @file
 * Flat per-core state arena. All per-cycle-touched pipeline state
 * (ROB hot/cold arrays, register file, fetch/LSQ/delay rings, the
 * wake rows, ready pools and issued lists) lives in one contiguous
 * byte buffer, so forking a core copies a single block instead of
 * walking an object graph of vectors and deques — and a trial-slot
 * restore (copy-assignment between equal layouts) is a pure memcpy
 * with no allocator traffic.
 *
 * Views into the arena (Rob, PhysRegFile, RingView, RefList) hold raw
 * pointers plus their own control scalars. Copying a Core copies the
 * buffer and the views member-wise, then shifts every view pointer by
 * the distance between the two buffers (same layout, same offsets),
 * which keeps the views plain trivially-copyable values.
 */

#ifndef FH_PIPELINE_ARENA_HH
#define FH_PIPELINE_ARENA_HH

#include <cstddef>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace fh::pipeline
{

/** One contiguous, copyable byte buffer with bump-pointer layout. */
class CoreArena
{
  public:
    CoreArena() = default;

    /** Layout phase: reserve n objects of T; returns the offset. */
    template <typename T>
    size_t reserve(size_t n)
    {
        size_ = (size_ + alignof(T) - 1) & ~(alignof(T) - 1);
        const size_t off = size_;
        size_ += n * sizeof(T);
        return off;
    }

    /** Materialize the reserved layout (zero-filled; callers must
     *  value-initialize every object they place). */
    void commit() { buf_.assign(size_, std::byte{0}); }

    template <typename T>
    T *at(size_t off)
    {
        return reinterpret_cast<T *>(buf_.data() + off);
    }

    const std::byte *base() const { return buf_.data(); }
    std::byte *base() { return buf_.data(); }
    size_t bytes() const { return buf_.size(); }

  private:
    std::vector<std::byte> buf_;
    size_t size_ = 0;
};

/** Pointer distance between two equal-layout arenas (for view fixup
 *  after a member-wise copy). */
inline std::ptrdiff_t
arenaDelta(CoreArena &mine, const CoreArena &theirs)
{
    fh_assert(mine.bytes() == theirs.bytes(),
              "arena copy between different layouts");
    return reinterpret_cast<const std::byte *>(mine.base()) -
           theirs.base();
}

template <typename T>
inline T *
shiftPtr(T *p, std::ptrdiff_t delta)
{
    return reinterpret_cast<T *>(
        reinterpret_cast<std::byte *>(p) + delta);
}

/**
 * Fixed-capacity FIFO ring over arena storage. Replaces the
 * ThreadState deques (fetch queue, delay buffer, store list); the
 * capacities are hard bounds established by the pipeline's own gating
 * (fetch gate, delay-buffer trim, LSQ partition), asserted on push.
 */
template <typename T>
class RingView
{
  public:
    void bind(T *data, u32 cap)
    {
        data_ = data;
        cap_ = cap;
        head_ = 0;
        size_ = 0;
    }

    void shiftBase(std::ptrdiff_t delta)
    {
        data_ = shiftPtr(data_, delta);
    }

    bool empty() const { return size_ == 0; }
    u32 size() const { return size_; }

    T &operator[](u32 i) { return data_[index(i)]; }
    const T &operator[](u32 i) const { return data_[index(i)]; }
    T &front() { return data_[head_]; }
    const T &front() const { return data_[head_]; }
    T &back() { return (*this)[size_ - 1]; }

    void push_back(const T &v)
    {
        fh_assert(size_ < cap_, "ring overflow");
        data_[index(size_)] = v;
        ++size_;
    }

    void pop_front()
    {
        fh_assert(size_ > 0, "pop on empty ring");
        head_ = (head_ + 1) % cap_;
        --size_;
    }

    void pop_back()
    {
        fh_assert(size_ > 0, "pop on empty ring");
        --size_;
    }

    void clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Remove every element equal to v, preserving order (the ring
     *  analog of std::erase on a deque). */
    void eraseValue(const T &v)
    {
        u32 out = 0;
        for (u32 i = 0; i < size_; ++i) {
            if ((*this)[i] == v)
                continue;
            if (out != i)
                (*this)[out] = (*this)[i];
            ++out;
        }
        size_ = out;
    }

  private:
    u32 index(u32 i) const { return (head_ + i) % cap_; }

    T *data_ = nullptr;
    u32 cap_ = 0;
    u32 head_ = 0;
    u32 size_ = 0;
};

/**
 * Fixed-capacity append/compact list over arena storage, for the
 * issue-stage and complete-stage ref lists. The per-cycle scans
 * rewrite the list in place (dropping stale refs); appends that find
 * the list full first compact it with the same staleness predicate
 * the scans use, so overflow handling is behavior-invisible.
 */
template <typename T>
class RefList
{
  public:
    void bind(T *data, u32 cap)
    {
        data_ = data;
        cap_ = cap;
        size_ = 0;
    }

    void shiftBase(std::ptrdiff_t delta)
    {
        data_ = shiftPtr(data_, delta);
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == cap_; }
    u32 size() const { return size_; }
    T &operator[](u32 i) { return data_[i]; }
    const T &operator[](u32 i) const { return data_[i]; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    void push_back(const T &v)
    {
        fh_assert(size_ < cap_, "ref list overflow after compaction");
        data_[size_++] = v;
    }

    void resize(u32 n)
    {
        fh_assert(n <= size_, "ref lists only shrink in place");
        size_ = n;
    }

    void clear() { size_ = 0; }

    /** Drop every ref failing pred, preserving order. */
    template <typename Pred>
    void compact(Pred &&pred)
    {
        u32 out = 0;
        for (u32 i = 0; i < size_; ++i) {
            if (!pred(data_[i]))
                continue;
            if (out != i)
                data_[out] = data_[i];
            ++out;
        }
        size_ = out;
    }

  private:
    T *data_ = nullptr;
    u32 cap_ = 0;
    u32 size_ = 0;
};

} // namespace fh::pipeline

#endif // FH_PIPELINE_ARENA_HH
