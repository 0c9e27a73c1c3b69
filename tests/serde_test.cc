#include <gtest/gtest.h>

#include "common/byte_buffer.h"
#include "common/rng.h"
#include "serde/serializer.h"

namespace itask::serde {
namespace {

TEST(SerializerTest, VarintRoundTrip) {
  common::ByteBuffer buf;
  Writer w(&buf);
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1ULL << 20, 1ULL << 40, ~0ULL};
  for (auto v : values) {
    w.WriteVarint(v);
  }
  Reader r(&buf);
  for (auto v : values) {
    EXPECT_EQ(r.ReadVarint(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, VarintRoundTripRandomized) {
  common::Rng rng(1234);
  common::ByteBuffer buf;
  Writer w(&buf);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10'000; ++i) {
    // Mix of magnitudes.
    const int shift = static_cast<int>(rng.NextBelow(64));
    values.push_back(rng.NextU64() >> shift);
    w.WriteVarint(values.back());
  }
  Reader r(&buf);
  for (auto v : values) {
    ASSERT_EQ(r.ReadVarint(), v);
  }
}

TEST(SerializerTest, ZigZagRoundTrip) {
  const std::int64_t values[] = {0, -1, 1, -1000, 1000, INT64_MIN, INT64_MAX};
  for (auto v : values) {
    EXPECT_EQ(Reader::UnZigZag(Writer::ZigZag(v)), v);
  }
}

TEST(SerializerTest, SignedRoundTrip) {
  common::ByteBuffer buf;
  Writer w(&buf);
  w.WriteI64(-42);
  w.WriteI64(42);
  Reader r(&buf);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_EQ(r.ReadI64(), 42);
}

TEST(SerializerTest, StringRoundTrip) {
  common::ByteBuffer buf;
  Writer w(&buf);
  w.WriteString("");
  w.WriteString("hello");
  w.WriteString(std::string(10'000, 'z'));
  Reader r(&buf);
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadString().size(), 10'000u);
}

TEST(SerializerTest, MixedPayloadRoundTrip) {
  common::ByteBuffer buf;
  Writer w(&buf);
  w.WriteU8(7);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(1ULL << 50);
  w.WriteDouble(2.718);
  w.WriteString("key");
  Reader r(&buf);
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 1ULL << 50);
  EXPECT_EQ(r.ReadDouble(), 2.718);
  EXPECT_EQ(r.ReadString(), "key");
}

}  // namespace
}  // namespace itask::serde
