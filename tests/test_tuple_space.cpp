#include <gtest/gtest.h>

#include "cls/tuple_space.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::flow;
using cls::TupleSpace;
using cls::TupleVisitStats;
using test::ip;
using test::make_packet;
using test::parse_packet;

Match m_ipdst24(uint32_t net) {
  Match m;
  m.set(FieldId::kIpDst, net, 0xFFFFFF00);
  return m;
}

Match m_port(uint16_t port) {
  Match m;
  m.set(FieldId::kTcpDst, port);
  return m;
}

TEST(TupleSpace, GroupsByMaskSignature) {
  TupleSpace<int> ts;
  ts.add(m_ipdst24(0x0A000100), 1, 10);
  ts.add(m_ipdst24(0x0A000200), 2, 20);
  ts.add(m_port(80), 3, 30);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.num_tuples(), 2u);
}

TEST(TupleSpace, LowestRankWinsAcrossTuples) {
  TupleSpace<int> ts;
  ts.add(m_port(80), 5, 100);        // less specific but better rank
  ts.add(m_ipdst24(0x0A000100), 9, 200);

  auto p = make_packet(test::tcp_spec(1, 0x0A000142, 7, 80));
  auto pi = parse_packet(p);
  const auto* e = ts.lookup(p.data(), pi);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 100);
  EXPECT_EQ(e->rank, 5u);
}

TEST(TupleSpace, EarlyExitSkipsWorseTuples) {
  TupleSpace<int> ts;
  ts.add(m_port(80), 1, 1);
  for (uint32_t i = 0; i < 10; ++i) ts.add(m_ipdst24(i << 8), 100 + i, 0);

  auto p = make_packet(test::tcp_spec(1, 0x00000505, 7, 80));
  auto pi = parse_packet(p);
  TupleVisitStats visit;
  const auto* e = ts.lookup(p.data(), pi, &visit);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 1);
  // The port tuple has min_rank 1; after matching there, the ip tuple
  // (min_rank 100) is never visited.
  EXPECT_EQ(visit.tuples_visited, 1u);
}

TEST(TupleSpace, VisitStatsUnionMasks) {
  TupleSpace<int> ts;
  ts.add(m_ipdst24(0x0A000100), 1, 10);
  ts.add(m_port(80), 2, 20);

  // Packet missing both: all tuples visited, masks unioned.
  auto p = make_packet(test::tcp_spec(1, 0x0B000001, 7, 443));
  auto pi = parse_packet(p);
  TupleVisitStats visit;
  EXPECT_EQ(ts.lookup(p.data(), pi, &visit), nullptr);
  EXPECT_EQ(visit.tuples_visited, 2u);
  EXPECT_TRUE(visit.fields_union & (1u << unsigned(FieldId::kIpDst)));
  EXPECT_TRUE(visit.fields_union & (1u << unsigned(FieldId::kTcpDst)));
  EXPECT_EQ(visit.mask_union[unsigned(FieldId::kIpDst)], 0xFFFFFF00u);
  EXPECT_EQ(visit.mask_union[unsigned(FieldId::kTcpDst)], 0xFFFFu);
}

TEST(TupleSpace, SameKeyDifferentRankChains) {
  TupleSpace<int> ts;
  const Match m = m_port(80);
  ts.add(m, 50, 1);
  ts.add(m, 10, 2);  // better rank, same key
  ts.add(m, 90, 3);

  auto p = make_packet(test::tcp_spec(1, 2, 7, 80));
  auto pi = parse_packet(p);
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 2);

  EXPECT_TRUE(ts.remove(m, 10));
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 1);
  EXPECT_TRUE(ts.remove(m, 50));
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 3);
  EXPECT_TRUE(ts.remove(m, 90));
  EXPECT_EQ(ts.lookup(p.data(), pi), nullptr);
  EXPECT_EQ(ts.num_tuples(), 0u);
  EXPECT_FALSE(ts.remove(m, 90));
}

TEST(TupleSpace, ProtocolPrerequisiteSkipsTuple) {
  TupleSpace<int> ts;
  ts.add(m_port(80), 1, 1);  // tcp tuple
  auto p = make_packet(test::udp_spec(1, 2, 7, 80));
  auto pi = parse_packet(p);
  EXPECT_EQ(ts.lookup(p.data(), pi), nullptr);
}

// Property: TSS result equals a priority-ordered linear scan.
TEST(TupleSpace, PropertyMatchesLinearScan) {
  Rng rng(21);
  for (int round = 0; round < 20; ++round) {
    TupleSpace<int> ts;
    struct Ref {
      Match m;
      uint32_t rank;
      int value;
    };
    std::vector<Ref> ref;

    const int n = 1 + static_cast<int>(rng.below(30));
    for (int i = 0; i < n; ++i) {
      Match m;
      if (rng.chance(1, 3)) m.set(FieldId::kIpDst, rng.below(4) << 8, 0xFFFFFF00);
      if (rng.chance(1, 3)) m.set(FieldId::kIpSrc, rng.below(4));
      if (rng.chance(1, 2)) m.set(FieldId::kTcpDst, 80 + rng.below(3));
      if (rng.chance(1, 4)) m.set(FieldId::kInPort, rng.below(2));
      // Unique ranks keep the comparison deterministic.
      const uint32_t rank = static_cast<uint32_t>(i);
      bool dup = false;
      for (const auto& r : ref)
        if (r.m == m) dup = true;
      if (dup) continue;
      ts.add(m, rank, i);
      ref.push_back({m, rank, i});
    }

    for (int q = 0; q < 200; ++q) {
      auto p = make_packet(
          test::tcp_spec(static_cast<uint32_t>(rng.below(5)),
                         static_cast<uint32_t>(rng.below(4) << 8 | rng.below(4)),
                         static_cast<uint16_t>(rng.below(4)),
                         static_cast<uint16_t>(80 + rng.below(4))),
          static_cast<uint32_t>(rng.below(3)));
      auto pi = parse_packet(p);

      const Ref* best = nullptr;
      for (const auto& r : ref)
        if (r.m.matches_packet(p.data(), pi) && (best == nullptr || r.rank < best->rank))
          best = &r;

      const auto* got = ts.lookup(p.data(), pi);
      if (best == nullptr) {
        ASSERT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        ASSERT_EQ(got->value, best->value);
      }
    }
  }
}

// load() is the bulk form of add(): same tuples, same chains, same answers
// (visited tuples included, so the tuple order matches too).  Ranks arrive
// shuffled and masked keys repeat, so chains and tuple sorting are exercised.
TEST(TupleSpace, LoadEqualsAddInTurn) {
  Rng rng(37);
  for (int round = 0; round < 20; ++round) {
    TupleSpace<int> added;
    std::vector<TupleSpace<int>::Entry> entries;
    const uint32_t n = 1 + static_cast<uint32_t>(rng.below(200));
    std::vector<uint32_t> ranks(n);
    for (uint32_t i = 0; i < n; ++i) ranks[i] = i;
    for (uint32_t i = n - 1; i > 0; --i) std::swap(ranks[i], ranks[rng.below(i + 1)]);
    for (uint32_t i = 0; i < n; ++i) {
      Match m;
      if (rng.chance(1, 2)) m.set(FieldId::kIpDst, rng.below(4) << 8, 0xFFFFFF00);
      if (rng.chance(1, 3)) m.set(FieldId::kIpSrc, rng.below(4));
      if (rng.chance(1, 2)) m.set(FieldId::kTcpDst, 80 + rng.below(3));
      added.add(m, ranks[i], static_cast<int>(i));
      entries.push_back({m, ranks[i], static_cast<int>(i)});
    }
    TupleSpace<int> loaded;
    loaded.load(std::move(entries));
    ASSERT_EQ(loaded.size(), added.size());
    ASSERT_EQ(loaded.num_tuples(), added.num_tuples());

    for (int q = 0; q < 200; ++q) {
      auto p = make_packet(test::tcp_spec(static_cast<uint32_t>(rng.below(4)),
                                          static_cast<uint32_t>(rng.below(4) << 8),
                                          7, static_cast<uint16_t>(80 + rng.below(4))));
      auto pi = parse_packet(p);
      TupleVisitStats va, vl;
      const auto* a = added.lookup(p.data(), pi, &va);
      const auto* l = loaded.lookup(p.data(), pi, &vl);
      ASSERT_EQ(a == nullptr, l == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(l->rank, a->rank);
        ASSERT_EQ(l->value, a->value);
      }
      ASSERT_EQ(vl.tuples_visited, va.tuples_visited);
    }
  }
}

}  // namespace
}  // namespace esw
