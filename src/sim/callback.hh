/**
 * @file
 * SmallFunc: the simulator's callback type.
 *
 * The engine advances by scheduling millions of small closures.  On the
 * memory path every continuation captures the owner's @c this and one
 * pooled record pointer (see sim/slab_pool.hh): all per-access state,
 * the CU's completion callback included, lives in the record, so a
 * closure never embeds another callback.  SmallFunc serves that shape
 * better than std::function (16-byte small buffer, copyable only):
 *
 *  - a 56-byte inline buffer, so closures of a few pointers and scalars
 *    never allocate and relocate by a plain byte copy;
 *  - a fixed-size block pool for the rare closure that does not fit
 *    (Directory::fetch, which carries its requester's callback) — it
 *    pops a thread-local free list instead of calling malloc;
 *  - move-only semantics: a completion is moved once, into its record,
 *    and invoked once, so requiring copyability buys nothing.
 *
 * EventQueue's lambda overloads static_assert storesInline(), so a
 * closure that would spill must be wrapped in a Callback explicitly.
 *
 * Host-side only: the callback type changes no simulated ordering or
 * statistic (the golden-stats and replay-identity suites pin this down).
 */

#ifndef GVC_SIM_CALLBACK_HH
#define GVC_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace gvc
{

namespace detail
{

/**
 * Thread-local free list of fixed-size blocks backing spilled callables.
 * One size class covers a closure that embeds one SmallFunc plus a
 * handful of scalars; larger objects fall through to operator new.
 * Thread-local because the sweep engine runs independent simulations
 * on pool threads.
 */
class CallbackPool
{
  public:
    static constexpr std::size_t kBlockSize = 192;

    static void *
    alloc(std::size_t n)
    {
        if (n > kBlockSize)
            return ::operator new(n);
        auto &blocks = freeList().blocks;
        if (blocks.empty())
            return ::operator new(kBlockSize);
        void *p = blocks.back();
        blocks.pop_back();
        return p;
    }

    static void
    dealloc(void *p, std::size_t n) noexcept
    {
        if (n > kBlockSize) {
            ::operator delete(p);
            return;
        }
        freeList().blocks.push_back(p);
    }

  private:
    struct FreeList
    {
        std::vector<void *> blocks;

        ~FreeList()
        {
            for (void *p : blocks)
                ::operator delete(p);
        }
    };

    static FreeList &
    freeList() noexcept
    {
        static thread_local FreeList fl;
        return fl;
    }
};

} // namespace detail

template <typename Sig, std::size_t Inline = 56>
class SmallFunc;

/**
 * Move-only callable wrapper with @p Inline bytes of in-place storage
 * and pooled heap fallback.  Invoking an empty SmallFunc is a simulator
 * bug (panics).
 */
template <typename R, typename... Args, std::size_t Inline>
class SmallFunc<R(Args...), Inline>
{
  public:
    SmallFunc() = default;
    SmallFunc(std::nullptr_t) {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFunc> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    SmallFunc(F &&f)
    {
        construct<D>(std::forward<F>(f));
    }

    /** Replace the held callable with @p f, built in place. */
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFunc> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    void
    emplace(F &&f)
    {
        reset();
        construct<D>(std::forward<F>(f));
    }

    SmallFunc(SmallFunc &&o) noexcept { moveFrom(o); }

    SmallFunc &
    operator=(SmallFunc &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    SmallFunc &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    SmallFunc(const SmallFunc &) = delete;
    SmallFunc &operator=(const SmallFunc &) = delete;

    ~SmallFunc() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** True when a callable of type @p F is stored without allocating. */
    template <typename F>
    static constexpr bool
    storesInline()
    {
        return fitsInline<std::decay_t<F>>();
    }

    R
    operator()(Args... args)
    {
        if (!ops_)
            panic("SmallFunc: invoking empty callback");
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

  private:
    union Storage
    {
        void *ptr;                  ///< Spilled: pool block address.
        unsigned char buf[Inline];  ///< In-place object storage.
    };

    struct Ops
    {
        R (*invoke)(Storage &, Args &&...);
        /// Null when relocation is a plain byte copy of Storage (spilled
        /// objects: the pool pointer; inline trivially-copyable objects:
        /// the bytes) — the overwhelmingly common case, handled inline
        /// in moveFrom without an indirect call.
        void (*relocate)(Storage &dst, Storage &src) noexcept;
        /// Null when destruction is a no-op (inline trivially-
        /// destructible objects); spilled objects always need it to
        /// return their pool block.
        void (*destroy)(Storage &) noexcept;
    };

    template <typename D, typename F>
    void
    construct(F &&f)
    {
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(storage_.buf))
                D(std::forward<F>(f));
            ops_ = &OpsFor<D, true>::ops;
        } else {
            void *p = detail::CallbackPool::alloc(sizeof(D));
            ::new (p) D(std::forward<F>(f));
            storage_.ptr = p;
            ops_ = &OpsFor<D, false>::ops;
        }
    }

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= Inline && alignof(D) <= alignof(Storage) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D, bool kInPlace>
    struct OpsFor
    {
        static D *
        obj(Storage &s) noexcept
        {
            if constexpr (kInPlace)
                return std::launder(reinterpret_cast<D *>(s.buf));
            else
                return static_cast<D *>(s.ptr);
        }

        static R
        invoke(Storage &s, Args &&...args)
        {
            return (*obj(s))(std::forward<Args>(args)...);
        }

        static void
        relocate(Storage &dst, Storage &src) noexcept
        {
            if constexpr (kInPlace) {
                D *o = obj(src);
                ::new (static_cast<void *>(dst.buf)) D(std::move(*o));
                o->~D();
            } else {
                dst.ptr = src.ptr;
            }
        }

        static void
        destroy(Storage &s) noexcept
        {
            D *o = obj(s);
            o->~D();
            if constexpr (!kInPlace)
                detail::CallbackPool::dealloc(s.ptr, sizeof(D));
        }

        static constexpr bool kByteReloc =
            !kInPlace || std::is_trivially_copyable_v<D>;
        static constexpr bool kNoDestroy =
            kInPlace && std::is_trivially_destructible_v<D>;

        static constexpr Ops ops{&invoke,
                                 kByteReloc ? nullptr : &relocate,
                                 kNoDestroy ? nullptr : &destroy};
    };

    void
    moveFrom(SmallFunc &o) noexcept
    {
        ops_ = o.ops_;
        if (ops_) {
            if (ops_->relocate) {
                ops_->relocate(storage_, o.storage_);
            } else {
                // Byte-copy relocation copies the whole union, including
                // tail bytes past the stored object (all of them for a
                // captureless closure).  Those bytes are indeterminate
                // but never read (unsigned char, so the copy itself is
                // defined); GCC 12 still warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
                storage_ = o.storage_;
#pragma GCC diagnostic pop
            }
            o.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    Storage storage_;
};

/** The engine-wide completion-callback type. */
using Callback = SmallFunc<void()>;

} // namespace gvc

#endif // GVC_SIM_CALLBACK_HH
