// Exact matching as the classifiers use it: cls::CuckooTable is the one
// exact-match index (compound-hash template, every tuple of the tuple space),
// so its probe cost must stay flat as the key count grows, and the tuple
// space's exact tuples must resolve every key through it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "cls/cuckoo.hpp"
#include "cls/tuple_space.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::flow;
using cls::CuckooTable;
using cls::TupleSpace;
using test::make_packet;
using test::parse_packet;

std::string key_of(uint64_t x, uint32_t len = 8) {
  std::string k(len, '\0');
  std::memcpy(k.data(), &x, std::min<uint32_t>(len, 8));
  return k;
}

const uint8_t* bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

// A hit probes at most two buckets in each of the front and draining back
// views (4 slot words, up to 2 cache lines each) and reads the hit entry (up
// to 2 lines); the rest is headroom for 16-bit tag false positives.  None of
// it depends on the key count.
constexpr size_t kMaxLinesPerHit = 12;

TEST(ExactMatch, TraceReportsTouchedLines) {
  CuckooTable t;
  const auto k = key_of(42);
  t.insert(bytes(k), 8, 7);
  MemTrace trace;
  ASSERT_TRUE(t.lookup(bytes(k), 8, &trace).has_value());
  EXPECT_GE(trace.lines().size(), 1u);
}

TEST(ExactMatch, TenThousandKeysShortProbes) {
  // Started at the minimum size, as a tuple's index is, and grown in place.
  CuckooTable t(CuckooTable::Config{.initial_buckets = 1});
  for (uint64_t i = 0; i < 10000; ++i) {
    const auto k = key_of(i * 2654435761u);
    t.insert(bytes(k), 8, i);
  }
  EXPECT_EQ(t.size(), 10000u);
  EXPECT_GT(t.grows(), 0u);
  size_t longest = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    const auto k = key_of(i * 2654435761u);
    MemTrace trace;
    const auto v = t.lookup(bytes(k), 8, &trace);
    ASSERT_TRUE(v.has_value()) << i;
    ASSERT_EQ(v->value, i) << i;
    longest = std::max(longest, trace.lines().size());
  }
  EXPECT_LE(longest, kMaxLinesPerHit);
}

TEST(ExactMatch, TupleSpaceExactTupleResolvesEveryFlow) {
  // 10k exact (ip_dst, tcp_dst) flows share one tuple; every flow hits its
  // own entry with a bounded probe, and erased flows stop matching.
  constexpr uint32_t kFlows = 10000;
  TupleSpace<uint32_t> ts;
  auto flow_match = [](uint32_t i) {
    Match m;
    m.set(FieldId::kIpDst, 0x0A000000u + i);
    m.set(FieldId::kTcpDst, static_cast<uint16_t>(1000 + i % 7));
    return m;
  };
  for (uint32_t i = 0; i < kFlows; ++i) ts.add(flow_match(i), i, i);
  ASSERT_EQ(ts.size(), kFlows);
  ASSERT_EQ(ts.num_tuples(), 1u);

  size_t longest = 0;
  for (uint32_t i = 0; i < kFlows; ++i) {
    auto p = make_packet(test::tcp_spec(1, 0x0A000000u + i, 7,
                                        static_cast<uint16_t>(1000 + i % 7)));
    auto pi = parse_packet(p);
    MemTrace trace;
    const auto* e = ts.lookup(p.data(), pi, nullptr, &trace);
    ASSERT_NE(e, nullptr) << i;
    ASSERT_EQ(e->value, i) << i;
    longest = std::max(longest, trace.lines().size());
  }
  // The tuple space adds one touch of the winning entry.
  constexpr size_t kEntryLines = sizeof(TupleSpace<uint32_t>::Entry) / 64 + 2;
  EXPECT_LE(longest, kMaxLinesPerHit + kEntryLines);

  for (uint32_t i = 0; i < kFlows; i += 2) ASSERT_TRUE(ts.remove(flow_match(i), i)) << i;
  EXPECT_EQ(ts.size(), kFlows / 2);
  for (uint32_t i = 0; i < kFlows; ++i) {
    auto p = make_packet(test::tcp_spec(1, 0x0A000000u + i, 7,
                                        static_cast<uint16_t>(1000 + i % 7)));
    auto pi = parse_packet(p);
    const auto* e = ts.lookup(p.data(), pi);
    if (i % 2 == 0) {
      ASSERT_EQ(e, nullptr) << i;
    } else {
      ASSERT_NE(e, nullptr) << i;
      ASSERT_EQ(e->value, i) << i;
    }
  }
}

}  // namespace
}  // namespace esw
