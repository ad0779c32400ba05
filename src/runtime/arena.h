#ifndef CAROUSEL_RUNTIME_ARENA_H_
#define CAROUSEL_RUNTIME_ARENA_H_

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace carousel::runtime {

// Arena-backed message allocation. Every protocol message lives exactly
// one delivery: allocated at send, dropped when the last handler lets the
// shared_ptr go. make_shared puts each of those short-lived control-block+
// payload pairs through the global allocator — at bench load that is
// hundreds of thousands of malloc/free pairs per simulated second and a
// measurable slice of wall-clock. MessageArena recycles the blocks
// instead: frees push onto a per-size free list, allocations pop, and
// fresh memory is only carved (in chunks) when a list runs dry.
//
// The pools are thread_local: under the simulator everything stays on the
// one simulation thread; under the threaded backend each worker thread
// recycles its own blocks with no locking, one pool for all the nodes it
// serves. A message allocated on one thread can be released on another
// (in-process transport hands the same shared_ptr across workers), which
// simply donates the block to the releasing thread's pool — chunks are
// never freed, so blocks stay valid wherever they end up.
//
// Under ASan/MSan/TSan the pool is disabled (plain make_shared) so the
// sanitizers keep seeing every message's true lifetime.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CAROUSEL_MESSAGE_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(memory_sanitizer) || \
    __has_feature(thread_sanitizer)
#define CAROUSEL_MESSAGE_POOL_DISABLED 1
#endif
#endif

namespace arena_internal {

/// One free list of `Size`-byte, `Align`-aligned blocks, per thread.
/// Blocks are carved from chunk allocations (64 at a time) that are
/// deliberately never released: a block freed on a different thread than
/// the one that carved it must stay valid for that thread's pool to
/// reuse, so chunks live for the life of the process.
template <size_t Size, size_t Align>
class BlockPool {
 public:
  static BlockPool& Instance() {
    static thread_local BlockPool pool;
    return pool;
  }

  void* Get() {
    if (free_.empty()) Refill();
    void* p = free_.back();
    free_.pop_back();
    return p;
  }

  void Put(void* p) { free_.push_back(p); }

 private:
  static constexpr size_t kChunkBlocks = 64;

  void Refill() {
    char* chunk = static_cast<char*>(
        ::operator new(Size * kChunkBlocks, std::align_val_t(Align)));
    for (size_t i = 0; i < kChunkBlocks; ++i) {
      free_.push_back(chunk + i * Size);
    }
  }

  std::vector<void*> free_;
};

/// Allocator handed to allocate_shared: routes the single-object
/// allocation (control block + message, one `U` per message) through the
/// matching BlockPool; anything else falls back to the heap.
template <typename U>
struct PoolAllocator {
  using value_type = U;

  PoolAllocator() = default;
  template <typename V>
  PoolAllocator(const PoolAllocator<V>&) {}

  U* allocate(size_t n) {
    if (n == 1) {
      return static_cast<U*>(
          BlockPool<sizeof(U), alignof(U)>::Instance().Get());
    }
    return std::allocator<U>().allocate(n);
  }
  void deallocate(U* p, size_t n) {
    if (n == 1) {
      BlockPool<sizeof(U), alignof(U)>::Instance().Put(p);
      return;
    }
    std::allocator<U>().deallocate(p, n);
  }

  template <typename V>
  bool operator==(const PoolAllocator<V>&) const {
    return true;
  }
};

}  // namespace arena_internal

/// Drop-in replacement for std::make_shared for message structs (and any
/// other short-lived object): same value semantics, recycled storage.
template <typename T, typename... Args>
std::shared_ptr<T> MakeMessage(Args&&... args) {
#ifdef CAROUSEL_MESSAGE_POOL_DISABLED
  return std::make_shared<T>(std::forward<Args>(args)...);
#else
  return std::allocate_shared<T>(arena_internal::PoolAllocator<T>(),
                                 std::forward<Args>(args)...);
#endif
}

}  // namespace carousel::runtime

#endif  // CAROUSEL_RUNTIME_ARENA_H_
