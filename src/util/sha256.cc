#include "util/sha256.hh"

#include <cstdio>

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

} // namespace

Sha256::Sha256()
    : _state{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
{}

void
Sha256::processBlock(const std::uint8_t* block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = static_cast<std::uint32_t>(block[i * 4]) << 24 |
               static_cast<std::uint32_t>(block[i * 4 + 1]) << 16 |
               static_cast<std::uint32_t>(block[i * 4 + 2]) << 8 |
               static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                                 (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                                 (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = _state[0], b = _state[1], c = _state[2],
                  d = _state[3], e = _state[4], f = _state[5],
                  g = _state[6], h = _state[7];
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 =
            rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
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
    _state[0] += a;
    _state[1] += b;
    _state[2] += c;
    _state[3] += d;
    _state[4] += e;
    _state[5] += f;
    _state[6] += g;
    _state[7] += h;
}

void
Sha256::update(const void* data, std::size_t len)
{
    const std::uint8_t* bytes = static_cast<const std::uint8_t*>(data);
    _totalBytes += len;
    while (len > 0) {
        const std::size_t take =
            std::min(len, _buffer.size() - _buffered);
        for (std::size_t i = 0; i < take; ++i)
            _buffer[_buffered + i] = bytes[i];
        _buffered += take;
        bytes += take;
        len -= take;
        if (_buffered == _buffer.size()) {
            processBlock(_buffer.data());
            _buffered = 0;
        }
    }
}

std::array<std::uint8_t, 32>
Sha256::finish()
{
    const std::uint64_t bit_length = _totalBytes * 8;
    const std::uint8_t pad = 0x80;
    update(&pad, 1);
    const std::uint8_t zero = 0x00;
    while (_buffered != 56)
        update(&zero, 1);
    std::uint8_t length_bytes[8];
    for (int i = 0; i < 8; ++i)
        length_bytes[i] =
            static_cast<std::uint8_t>(bit_length >> (56 - i * 8));
    // update() counts these toward _totalBytes, but the length is
    // already latched in bit_length, so that is harmless.
    update(length_bytes, 8);

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
