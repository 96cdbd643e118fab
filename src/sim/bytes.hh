/**
 * @file
 * Byte-level helpers shared by every on-disk format: the FNV-1a-64
 * digest that `.gvct` traces, `.gvcj` journals and cost-model stamps
 * carry, and the whole-file reader their loaders use.
 */

#ifndef GVC_SIM_BYTES_HH
#define GVC_SIM_BYTES_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace gvc
{

/** FNV-1a-64 offset basis: the digest of no bytes. */
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/**
 * FNV-1a-64 of @p size bytes at @p data, continuing from the digest @p h
 * of the bytes before them, so a digest can be taken piece by piece.
 */
inline std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t h = kFnv1aBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Read every byte of the file at @p path into @p out.  On failure
 * returns false and, when @p err is non-null, stores "cannot open
 * '<path>': <reason>" or "read failed on '<path>': <reason>".
 */
inline bool
readFileBytes(const std::string &path, std::string &out,
              std::string *err = nullptr)
{
    out.clear();
    errno = 0;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (err)
            *err = "cannot open '" + path + "': " + std::strerror(errno);
        return false;
    }
    char buf[1 << 16];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    const int error = errno;
    std::fclose(f);
    if (!ok && err)
        *err = "read failed on '" + path + "': " + std::strerror(error);
    return ok;
}

} // namespace gvc

#endif // GVC_SIM_BYTES_HH
