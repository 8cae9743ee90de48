#include "util/sha256.hh"

#include <cstdio>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define GEST_SHA256_X86 1
#include <immintrin.h>
#endif

namespace gest {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

void
compressPortable(std::uint32_t* state, const std::uint8_t* data,
                 std::size_t blocks)
{
    for (; blocks > 0; --blocks, data += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = static_cast<std::uint32_t>(data[i * 4]) << 24 |
                   static_cast<std::uint32_t>(data[i * 4 + 1]) << 16 |
                   static_cast<std::uint32_t>(data[i * 4 + 2]) << 8 |
                   static_cast<std::uint32_t>(data[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 = rotr(w[i - 15], 7) ^
                                     rotr(w[i - 15], 18) ^
                                     (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr(w[i - 2], 17) ^
                                     rotr(w[i - 2], 19) ^
                                     (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2],
                      d = state[3], e = state[4], f = state[5],
                      g = state[6], h = state[7];
        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 =
                rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t t1 =
                h + s1 + ch + kRoundConstants[i] + w[i];
            const std::uint32_t s0 =
                rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#ifdef GEST_SHA256_X86

/**
 * The same compression on the SHA extensions. The state lives in two
 * registers as (A,B,E,F) and (C,D,G,H), the layout sha256rnds2 wants;
 * each step of the loop below is four rounds: it extends the message
 * schedule by four words (msg1/msg2 over the last four groups) and
 * runs two rnds2, each of which does two rounds.
 */
__attribute__((target("sha,sse4.1"))) void
compressShaNi(std::uint32_t* state, const std::uint8_t* data,
              std::size_t blocks)
{
    // Big-endian words: reverse the bytes of each 32-bit lane.
    const __m128i byteswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

    __m128i dcba = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(&state[0]));
    __m128i hgfe = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(&state[4]));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        // msg[g % 4] holds schedule words 4g..4g+3.
        __m128i msg[4];
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            __m128i& cur = msg[g & 3];
            if (g < 4) {
                cur = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(data + 16 * g)),
                    byteswap);
            } else {
                const __m128i prev = msg[(g + 3) & 3];
                cur = _mm_sha256msg1_epu32(cur, msg[(g + 1) & 3]);
                cur = _mm_add_epi32(
                    cur, _mm_alignr_epi8(prev, msg[(g + 2) & 3], 4));
                cur = _mm_sha256msg2_epu32(cur, prev);
            }
            const __m128i wk = _mm_add_epi32(
                cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                         &kRoundConstants[4 * g])));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    hgfe = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

#endif // GEST_SHA256_X86

} // namespace

bool
Sha256::hasShaExtensions()
{
#ifdef GEST_SHA256_X86
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sha") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return has;
#else
    return false;
#endif
}

Sha256::Sha256(Rounds rounds)
    : _compress(compressPortable),
      _state{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
{
#ifdef GEST_SHA256_X86
    if (rounds == Rounds::Best && hasShaExtensions())
        _compress = compressShaNi;
#else
    (void)rounds;
#endif
}

void
Sha256::update(const void* data, std::size_t len)
{
    // An empty update may come with a null pointer, which memcpy must
    // not see.
    if (len == 0)
        return;
    const std::uint8_t* bytes = static_cast<const std::uint8_t*>(data);
    _totalBytes += len;
    if (_buffered > 0) {
        const std::size_t take =
            std::min(len, _buffer.size() - _buffered);
        std::memcpy(_buffer.data() + _buffered, bytes, take);
        _buffered += take;
        bytes += take;
        len -= take;
        if (_buffered < _buffer.size())
            return;
        _compress(_state.data(), _buffer.data(), 1);
        _buffered = 0;
    }
    // Whole blocks straight from the caller's bytes; only the tail is
    // buffered.
    const std::size_t blocks = len / _buffer.size();
    if (blocks > 0) {
        _compress(_state.data(), bytes, blocks);
        bytes += blocks * _buffer.size();
        len -= blocks * _buffer.size();
    }
    if (len > 0) {
        std::memcpy(_buffer.data(), bytes, len);
        _buffered = len;
    }
}

std::array<std::uint8_t, 32>
Sha256::finish()
{
    // Padding: a 1 bit, zeros up to 56 bytes into the last block, then
    // the message length in bits, big-endian.
    const std::uint64_t bit_length = _totalBytes * 8;
    _buffer[_buffered++] = 0x80;
    if (_buffered > 56) {
        std::memset(_buffer.data() + _buffered, 0,
                    _buffer.size() - _buffered);
        _compress(_state.data(), _buffer.data(), 1);
        _buffered = 0;
    }
    std::memset(_buffer.data() + _buffered, 0, 56 - _buffered);
    for (int i = 0; i < 8; ++i)
        _buffer[56 + i] =
            static_cast<std::uint8_t>(bit_length >> (56 - i * 8));
    _compress(_state.data(), _buffer.data(), 1);
    _buffered = 0;

    std::array<std::uint8_t, 32> digest;
    for (int i = 0; i < 8; ++i) {
        digest[i * 4] = static_cast<std::uint8_t>(_state[i] >> 24);
        digest[i * 4 + 1] = static_cast<std::uint8_t>(_state[i] >> 16);
        digest[i * 4 + 2] = static_cast<std::uint8_t>(_state[i] >> 8);
        digest[i * 4 + 3] = static_cast<std::uint8_t>(_state[i]);
    }
    return digest;
}

std::string
Sha256::finishHex()
{
    const std::array<std::uint8_t, 32> digest = finish();
    static const char* hex = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t byte : digest) {
        out += hex[byte >> 4];
        out += hex[byte & 0x0f];
    }
    return out;
}

std::string
sha256Hex(std::string_view s)
{
    Sha256 hasher;
    hasher.update(s);
    return hasher.finishHex();
}

bool
sha256File(const std::string& path, std::string& out,
           std::uint64_t* bytes)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (!file)
        return false;
    Sha256 hasher;
    char buffer[1 << 16];
    std::size_t got;
    std::uint64_t total = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        hasher.update(buffer, got);
        total += got;
    }
    const bool ok = !std::ferror(file);
    std::fclose(file);
    if (!ok)
        return false;
    out = hasher.finishHex();
    if (bytes)
        *bytes = total;
    return true;
}

} // namespace gest
