/**
 * @file
 * SHA-256 (FIPS 180-4) for artifact checksums and run digests.
 *
 * The provenance layer needs a collision-resistant hash to seal run
 * artifacts and per-generation population digests into manifest.json
 * and digests.csv; no crypto library is available in this environment,
 * so the framework carries its own. Its speed shows on the coordinator:
 * every generation hashes the records of its checkpoint, and the seal
 * hashes every artifact of the run directory. Where the CPU has the x86
 * SHA extensions (sha256rnds2/sha256msg1/sha256msg2) the block
 * compression runs on them, at about 1.2 GB/s on a shared 4-CPU x86-64
 * host against 120–170 MB/s for the portable rounds, which stay the
 * fallback everywhere else (docs/performance.md, "Run-artifact bytes").
 */

#ifndef GEST_UTIL_SHA256_HH
#define GEST_UTIL_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gest {

/** Incremental SHA-256; use sha256Hex() for one-shot hashing. */
class Sha256
{
  public:
    /** The block compression a hasher runs; both give the same digest. */
    enum class Rounds
    {
        Best,     ///< the x86 SHA extensions when the CPU has them
        Portable, ///< the plain C++ rounds, the reference
    };

    /** @return true when Rounds::Best runs on the SHA extensions. */
    static bool hasShaExtensions();

    explicit Sha256(Rounds rounds = Rounds::Best);

    /** Absorb @p len bytes at @p data. */
    void update(const void* data, std::size_t len);

    /** Absorb a string. */
    void update(std::string_view s) { update(s.data(), s.size()); }

    /** Finalize and return the 32-byte digest; the object is spent. */
    std::array<std::uint8_t, 32> finish();

    /** Finalize and return the digest as 64 lowercase hex digits. */
    std::string finishHex();

  private:
    /** Compress @p blocks consecutive 64-byte blocks into @p state. */
    using Compress = void (*)(std::uint32_t* state,
                              const std::uint8_t* data,
                              std::size_t blocks);

    Compress _compress;
    std::array<std::uint32_t, 8> _state;
    std::array<std::uint8_t, 64> _buffer;
    std::size_t _buffered = 0;
    std::uint64_t _totalBytes = 0;
};

/** One-shot SHA-256 of @p s as 64 lowercase hex digits. */
std::string sha256Hex(std::string_view s);

/**
 * SHA-256 of the file at @p path as 64 lowercase hex digits; @p bytes,
 * when given, receives the length of the same read.
 * @return false when the file cannot be read (outputs untouched).
 */
bool sha256File(const std::string& path, std::string& out,
                std::uint64_t* bytes = nullptr);

} // namespace gest

#endif // GEST_UTIL_SHA256_HH
