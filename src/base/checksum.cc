#include "src/base/checksum.h"

#include <bit>
#include <cstring>

namespace oskit {
namespace {

// One's-complement add of two 64-bit words: the carry out of bit 63 wraps
// around into bit 0 (RFC 1071 §2(C), deferred carries).
inline uint64_t AddCarry(uint64_t sum, uint64_t word) {
  sum += word;
  return sum + (sum < word);
}

// Sums `length` bytes (even) as native-order 16-bit words, 8 bytes at a time,
// and folds the result to 16 bits.  The result is zero only for all-zero
// input.
uint32_t NativeSum16(const uint8_t* p, size_t length) {
  uint64_t sum = 0;
  for (; length >= 8; p += 8, length -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    sum = AddCarry(sum, word);
  }
  if (length >= 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);
    sum = AddCarry(sum, word);
    p += 4;
    length -= 4;
  }
  if (length >= 2) {
    uint16_t word;
    std::memcpy(&word, p, 2);
    sum = AddCarry(sum, word);
  }
  // Fold 64 -> 16 bits, end-around at each step.
  sum = (sum & 0xffffffff) + (sum >> 32);
  sum = (sum & 0xffffffff) + (sum >> 32);
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint32_t>(sum);
}

}  // namespace

void InetChecksum::Add(const void* data, size_t length) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  if (odd_ && length > 0) {
    // Pair this byte as the low half of the word whose high half came from
    // the tail of the previous Add().
    sum_ += *p++;
    --length;
    odd_ = false;
  }
  size_t even = length & ~static_cast<size_t>(1);
  uint32_t folded = NativeSum16(p, even);
  if constexpr (std::endian::native == std::endian::little) {
    // The one's-complement sum is byte-order independent (RFC 1071 §2(B)):
    // summing byte-swapped words yields the byte-swapped sum.
    folded = ((folded & 0xff) << 8) | (folded >> 8);
  }
  sum_ += folded;
  if (length != even) {
    sum_ += static_cast<uint32_t>(p[even]) << 8;
    odd_ = true;
  }
}

uint16_t InetChecksum::Finish() const {
  uint64_t sum = sum_;
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

uint16_t InetChecksumOf(const void* data, size_t length) {
  InetChecksum cksum;
  cksum.Add(data, length);
  return cksum.Finish();
}

}  // namespace oskit
