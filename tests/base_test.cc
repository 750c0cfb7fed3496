// Foundation-library tests: the Internet checksum (including the
// odd-boundary chaining the mbuf walkers rely on), byte-order helpers, the
// intrusive list, the deterministic RNG, error names, and panic plumbing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/byteorder.h"
#include "src/base/checksum.h"
#include "src/base/error.h"
#include "src/base/intrusive_list.h"
#include "src/base/panic.h"
#include "src/base/random.h"

namespace oskit {
namespace {

TEST(ChecksumTest, KnownVector) {
  // RFC 1071's classic example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2,
  // checksum ~0xddf2 = 0x220d.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(0x220d, InetChecksumOf(data, sizeof(data)));
}

TEST(ChecksumTest, ValidPacketSumsToZero) {
  // A buffer with its own checksum stored verifies to 0 — the property the
  // IP/TCP/UDP input paths rely on.
  uint8_t packet[20];
  for (size_t i = 0; i < sizeof(packet); ++i) {
    packet[i] = static_cast<uint8_t>(i * 41);
  }
  packet[10] = 0;
  packet[11] = 0;
  uint16_t sum = InetChecksumOf(packet, sizeof(packet));
  StoreBe16(packet + 10, sum);
  EXPECT_EQ(0, InetChecksumOf(packet, sizeof(packet)));
}

// Property: summing a buffer in arbitrary (odd-length!) pieces equals
// summing it flat — exactly what checksumming an mbuf chain does.
class ChecksumSplitTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChecksumSplitTest, ArbitrarySplitsEqualFlat) {
  Rng rng(GetParam());
  std::vector<uint8_t> data(rng.Range(100, 5000));
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  uint16_t flat = InetChecksumOf(data.data(), data.size());

  for (int trial = 0; trial < 50; ++trial) {
    InetChecksum chained;
    size_t offset = 0;
    while (offset < data.size()) {
      size_t n = rng.Range(1, 97);  // frequently odd
      if (n > data.size() - offset) {
        n = data.size() - offset;
      }
      chained.Add(data.data() + offset, n);
      offset += n;
    }
    ASSERT_EQ(flat, chained.Finish()) << "seed trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumSplitTest, ::testing::Values(1, 9, 77));

// The definition of the sum, one big-endian 16-bit word at a time.
uint16_t ReferenceChecksum(const uint8_t* p, size_t length) {
  uint64_t sum = 0;
  for (size_t i = 0; i + 1 < length; i += 2) {
    sum += (static_cast<uint32_t>(p[i]) << 8) | p[i + 1];
  }
  if (length % 2 != 0) {
    sum += static_cast<uint32_t>(p[length - 1]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

// Differential property: the word-wide sum equals the reference for every
// length 0..3000, from unaligned starts, fed flat or in pieces split at
// random (often odd) points, over random, all-zero and all-0xff bytes.  The
// last two pin the 0x0000/0xffff distinction a fold can get wrong.
TEST(ChecksumTest, MatchesWordAtATimeReference) {
  Rng rng(0xc0ffee);
  std::vector<uint8_t> buf(3000 + 8);
  for (int fill = 0; fill < 3; ++fill) {
    for (auto& b : buf) {
      b = fill == 0 ? static_cast<uint8_t>(rng.Next()) : fill == 1 ? 0x00 : 0xff;
    }
    for (size_t length = 0; length <= 3000; ++length) {
      const uint8_t* p = buf.data() + rng.Below(8);
      uint16_t want = ReferenceChecksum(p, length);
      ASSERT_EQ(want, InetChecksumOf(p, length)) << "fill " << fill << " length " << length;

      InetChecksum chained;
      size_t offset = 0;
      while (offset < length) {
        // Short pieces (many odd split points) mixed with long ones.
        size_t n = rng.Below(2) != 0 ? rng.Range(0, 17) : rng.Range(0, length - offset);
        if (n > length - offset) {
          n = length - offset;
        }
        chained.Add(p + offset, n);
        offset += n;
      }
      ASSERT_EQ(want, chained.Finish()) << "fill " << fill << " length " << length;
    }
  }
  const std::vector<uint8_t> zeros(1500, 0x00);
  const std::vector<uint8_t> ones(1500, 0xff);
  EXPECT_EQ(0xffff, InetChecksumOf(zeros.data(), zeros.size()));
  EXPECT_EQ(0x0000, InetChecksumOf(ones.data(), ones.size()));
}

TEST(ByteOrderTest, SwapsAndUnalignedAccess) {
  EXPECT_EQ(0x3412, ByteSwap16(0x1234));
  EXPECT_EQ(0x78563412u, ByteSwap32(0x12345678));

  uint8_t buf[9] = {};
  StoreBe16(buf + 1, 0xabcd);  // deliberately misaligned
  EXPECT_EQ(0xab, buf[1]);
  EXPECT_EQ(0xcd, buf[2]);
  EXPECT_EQ(0xabcd, LoadBe16(buf + 1));
  StoreBe32(buf + 3, 0x01020304);
  EXPECT_EQ(0x01020304u, LoadBe32(buf + 3));
  StoreLe32(buf + 3, 0x01020304);
  EXPECT_EQ(0x04, buf[3]);
  EXPECT_EQ(0x01020304u, LoadLe32(buf + 3));
  StoreLe64(buf + 1, 0x1122334455667788ull);
  EXPECT_EQ(0x1122334455667788ull, LoadLe64(buf + 1));
}

TEST(ByteOrderTest, NetworkOrderRoundTrips) {
  EXPECT_EQ(0x1234, NetToHost16(HostToNet16(0x1234)));
  EXPECT_EQ(0xdeadbeefu, NetToHost32(HostToNet32(0xdeadbeef)));
  // On this (little-endian, asserted in src/fs) platform hton swaps.
  uint16_t wire = HostToNet16(0x0102);
  EXPECT_EQ(0x01, reinterpret_cast<uint8_t*>(&wire)[0]);
}

struct Item {
  int value;
  ListNode node;
  explicit Item(int v) : value(v) {}
};

TEST(IntrusiveListTest, PushPopOrdering) {
  IntrusiveList<Item, &Item::node> list;
  Item a(1);
  Item b(2);
  Item c(3);
  EXPECT_TRUE(list.Empty());
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushFront(&c);
  EXPECT_EQ(3u, list.Size());
  EXPECT_EQ(3, list.Front()->value);
  EXPECT_EQ(2, list.Back()->value);
  EXPECT_EQ(3, list.PopFront()->value);
  EXPECT_EQ(2, list.PopBack()->value);
  EXPECT_EQ(1, list.PopFront()->value);
  EXPECT_TRUE(list.Empty());
  EXPECT_EQ(nullptr, list.PopFront());
}

TEST(IntrusiveListTest, RemoveFromMiddleAndIteration) {
  IntrusiveList<Item, &Item::node> list;
  Item items[] = {Item(0), Item(1), Item(2), Item(3), Item(4)};
  for (Item& item : items) {
    list.PushBack(&item);
  }
  list.Remove(&items[2]);
  EXPECT_FALSE(items[2].node.InList());
  std::string order;
  for (Item& item : list) {
    order += static_cast<char>('0' + item.value);
  }
  EXPECT_EQ("0134", order);
  // Drain so the destructor's non-empty assertion stays quiet.
  while (list.PopFront() != nullptr) {
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
  Rng c(43);
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 10; ++i) {
    differs |= a2.Next() != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, RangesRespectBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(10, 20);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 20u);
    double u = rng.Unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  // Percent(0) never, Percent(100) always.
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(rng.Percent(0));
    ASSERT_TRUE(rng.Percent(100));
  }
}

TEST(ErrorTest, NamesAreStable) {
  EXPECT_STREQ("OK", ErrorName(Error::kOk));
  EXPECT_STREQ("ENOENT", ErrorName(Error::kNoEnt));
  EXPECT_STREQ("ECONNREFUSED", ErrorName(Error::kConnRefused));
  EXPECT_STREQ("E_NOINTERFACE", ErrorName(Error::kNoInterface));
  EXPECT_TRUE(Ok(Error::kOk));
  EXPECT_FALSE(Ok(Error::kIo));
}

TEST(PanicTest, HandlerReceivesFormattedMessage) {
  static std::string captured;
  captured.clear();
  PanicHandler old = SetPanicHandler(+[](const char* message) {
    captured = message;
    throw 1;  // tests substitute unwinding for halting
  });
  EXPECT_THROW(Panic("code %d in %s", 7, "unit"), int);
  SetPanicHandler(old);
  EXPECT_EQ("code 7 in unit", captured);
}

TEST(PanicTest, AssertMacroFiresOnFalse) {
  PanicHandler old = SetPanicHandler(+[](const char*) { throw 2; });
  EXPECT_THROW([] { OSKIT_ASSERT(1 == 2); }(), int);
  OSKIT_ASSERT(true);  // and not on true
  SetPanicHandler(old);
}

}  // namespace
}  // namespace oskit
