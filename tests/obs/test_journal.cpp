#include "obs/journal.h"

#include <gtest/gtest.h>

#include <string>

namespace mdn::obs {
namespace {

JournalRecord make_record(JournalKind kind, std::int64_t sim_ns,
                          double frequency_hz = 0.0, CauseId cause = 0) {
  JournalRecord r;
  r.kind = kind;
  r.sim_ns = sim_ns;
  r.frequency_hz = frequency_hz;
  r.cause = cause;
  return r;
}

TEST(JournalTest, DisabledByDefaultAndAppendReturnsZero) {
  Journal journal;
  EXPECT_FALSE(journal.enabled());
  EXPECT_EQ(journal.append(make_record(JournalKind::kToneEmitted, 1)), 0u);
  EXPECT_EQ(journal.size(), 0u);
}

TEST(JournalTest, AppendAssignsMonotonicIdsAndFindRoundTrips) {
  Journal journal;
  journal.enable(8);
  const CauseId a = journal.append(
      make_record(JournalKind::kToneEmitted, 100, 800.0));
  const CauseId b = journal.append(
      make_record(JournalKind::kToneDetected, 200, 800.0, a));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);

  JournalRecord out;
  ASSERT_TRUE(journal.find(b, &out));
  EXPECT_EQ(out.kind, JournalKind::kToneDetected);
  EXPECT_EQ(out.cause, a);
  EXPECT_EQ(out.sim_ns, 200);
  EXPECT_FALSE(journal.find(0, &out));
  EXPECT_FALSE(journal.find(99, &out));
}

TEST(JournalTest, RingEvictsOldestAndFindReportsEvicted) {
  Journal journal;
  journal.enable(4);
  for (int i = 0; i < 6; ++i) {
    journal.append(make_record(JournalKind::kToneEmitted, i));
  }
  EXPECT_EQ(journal.appended(), 6u);
  EXPECT_EQ(journal.evicted(), 2u);
  EXPECT_EQ(journal.size(), 4u);
  JournalRecord out;
  EXPECT_FALSE(journal.find(1, &out));  // evicted
  EXPECT_FALSE(journal.find(2, &out));
  EXPECT_TRUE(journal.find(3, &out));
  EXPECT_TRUE(journal.find(6, &out));
}

TEST(JournalTest, LabelTruncatesAndStaysNulTerminated) {
  JournalRecord r;
  set_journal_label(r, "a-very-long-component-label-that-overflows");
  EXPECT_LT(std::string(r.label).size(), sizeof(r.label));
  set_journal_label(r, "short");
  EXPECT_STREQ(r.label, "short");
}

TEST(JournalTest, ExplainWalksCauseAndCause2Links) {
  Journal journal;
  journal.enable(64);
  // Emission -> detection -> fsm1; emission2 -> detection2 -> fsm2
  // (cause2 = fsm1); flow mod <- fsm2.  explain(flow) must recover all 7.
  const CauseId e1 =
      journal.append(make_record(JournalKind::kToneEmitted, 10, 500.0));
  const CauseId d1 =
      journal.append(make_record(JournalKind::kToneDetected, 20, 500.0, e1));
  const CauseId f1 =
      journal.append(make_record(JournalKind::kFsmTransition, 20, 0.0, d1));
  const CauseId e2 =
      journal.append(make_record(JournalKind::kToneEmitted, 30, 600.0));
  const CauseId d2 =
      journal.append(make_record(JournalKind::kToneDetected, 40, 600.0, e2));
  JournalRecord fsm2 = make_record(JournalKind::kFsmTransition, 40, 0.0, d2);
  fsm2.cause2 = f1;
  const CauseId f2 = journal.append(fsm2);
  const CauseId mod =
      journal.append(make_record(JournalKind::kFlowMod, 41, 0.0, f2));

  const auto chain = journal.explain(mod);
  ASSERT_EQ(chain.size(), 7u);
  // Ascending in time, the flow mod last.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LE(chain[i - 1].sim_ns, chain[i].sim_ns);
  }
  EXPECT_EQ(chain.back().kind, JournalKind::kFlowMod);
  EXPECT_EQ(chain.front().kind, JournalKind::kToneEmitted);

  EXPECT_TRUE(journal.explain(999).empty());
}

TEST(JournalTest, ExplainDiamondVisitsSharedRootOnce) {
  // A true diamond: the merged record's cause and cause2 reach the SAME
  // emission through different intermediate hops.  BFS must visit the
  // shared root exactly once (linear seen-set, no duplicates).
  Journal journal;
  journal.enable(32);
  const CauseId root =
      journal.append(make_record(JournalKind::kToneEmitted, 10, 440.0));
  const CauseId left =
      journal.append(make_record(JournalKind::kToneDetected, 20, 440.0, root));
  const CauseId right =
      journal.append(make_record(JournalKind::kBlockIngested, 20, 0.0, root));
  JournalRecord merged = make_record(JournalKind::kMergedEvent, 30, 440.0,
                                     left);
  merged.cause2 = right;
  const CauseId m = journal.append(merged);

  const auto chain = journal.explain(m);
  ASSERT_EQ(chain.size(), 4u);
  std::size_t roots = 0;
  for (const auto& r : chain) {
    if (r.kind == JournalKind::kToneEmitted) ++roots;
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(chain.front().id, root);
  EXPECT_EQ(chain.back().id, m);
  // Rendering is deterministic: two walks give the same bytes.
  EXPECT_EQ(explain_text(journal, m), explain_text(journal, m));
}

TEST(JournalTest, ExplainTerminatesOnSelfAndMutualCycles) {
  Journal journal;
  journal.enable(16);
  // Ids are sequential from 1, so a record can cite its own id before
  // append() assigns it — a self-referential link a corrupted producer
  // could mint.  explain() must terminate with the record exactly once.
  JournalRecord self = make_record(JournalKind::kFsmTransition, 5);
  self.cause = 1;
  const CauseId sid = journal.append(self);
  ASSERT_EQ(sid, 1u);
  const auto self_chain = journal.explain(sid);
  ASSERT_EQ(self_chain.size(), 1u);
  EXPECT_EQ(self_chain[0].id, sid);

  // Mutual cycle: #2 cites #3 and #3 cites #2.
  JournalRecord a = make_record(JournalKind::kToneEmitted, 1, 0.0, 3);
  JournalRecord b = make_record(JournalKind::kToneDetected, 2, 0.0, 2);
  const CauseId aid = journal.append(a);
  const CauseId bid = journal.append(b);
  ASSERT_EQ(aid, 2u);
  ASSERT_EQ(bid, 3u);
  const auto cycle = journal.explain(bid);
  EXPECT_EQ(cycle.size(), 2u);
  const std::string text = explain_text(journal, bid);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text, explain_text(journal, bid));
}

TEST(JournalTest, ExplainStopsCleanlyAtEvictedCause) {
  // A small ring evicts the emission before the detection citing it is
  // walked: the chain is truncated at the evicted link, not an error.
  Journal journal;
  journal.enable(4);
  const CauseId e =
      journal.append(make_record(JournalKind::kToneEmitted, 1, 300.0));
  for (int i = 0; i < 4; ++i) {
    journal.append(make_record(JournalKind::kAppAction, 2 + i));
  }
  JournalRecord out;
  ASSERT_FALSE(journal.find(e, &out));  // evicted by the fillers
  const CauseId d =
      journal.append(make_record(JournalKind::kToneDetected, 10, 300.0, e));

  const auto chain = journal.explain(d);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].id, d);
  const std::string text = explain_text(journal, d);
  EXPECT_NE(text.find("tone_detected"), std::string::npos);
  EXPECT_EQ(text, explain_text(journal, d));
}

TEST(JournalTest, RecentOfReturnsNewestOfKindOldestFirst) {
  Journal journal;
  journal.enable(16);
  journal.append(make_record(JournalKind::kToneEmitted, 1));
  const CauseId m1 = journal.append(make_record(JournalKind::kFlowMod, 2));
  journal.append(make_record(JournalKind::kToneDetected, 3));
  const CauseId m2 = journal.append(make_record(JournalKind::kFlowMod, 4));
  const CauseId m3 = journal.append(make_record(JournalKind::kFlowMod, 5));

  const auto last2 = journal.recent_of(JournalKind::kFlowMod, 2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0], m2);
  EXPECT_EQ(last2[1], m3);
  const auto all = journal.recent_of(JournalKind::kFlowMod, 10);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], m1);
}

TEST(JournalTest, CanonicalJsonlRenumbersAcrossMintOrders) {
  // Same three records minted in two different id orders must export
  // byte-identically: content sorting + id renumbering erases the
  // interleaving.
  Journal a;
  a.enable(16);
  const CauseId ae = a.append(make_record(JournalKind::kToneEmitted, 10, 700.0));
  a.append(make_record(JournalKind::kToneEmitted, 30, 900.0));
  a.append(make_record(JournalKind::kToneDetected, 20, 700.0, ae));

  Journal b;
  b.enable(16);
  b.append(make_record(JournalKind::kToneEmitted, 30, 900.0));
  const CauseId be = b.append(make_record(JournalKind::kToneEmitted, 10, 700.0));
  b.append(make_record(JournalKind::kToneDetected, 20, 700.0, be));

  const std::string ja = to_journal_jsonl(a);
  const std::string jb = to_journal_jsonl(b);
  EXPECT_EQ(ja, jb);
  // The detection's rewritten cause must point at the 700 Hz emission's
  // new id (line 1: earliest sim_ns).
  EXPECT_NE(ja.find("\"cause\":1"), std::string::npos);
}

TEST(JournalTest, ExplainTextMentionsEveryHop) {
  Journal journal;
  journal.enable(16);
  JournalRecord e = make_record(JournalKind::kToneEmitted, 1000000000, 800.0);
  set_journal_label(e, "s1");
  const CauseId eid = journal.append(e);
  JournalRecord d = make_record(JournalKind::kToneDetected, 1050000000, 800.0,
                                eid);
  d.mic = 0;
  d.watch = 2;
  const CauseId did = journal.append(d);
  const std::string text = explain_text(journal, did);
  EXPECT_NE(text.find("tone_emitted"), std::string::npos);
  EXPECT_NE(text.find("tone_detected"), std::string::npos);
  EXPECT_NE(text.find("800"), std::string::npos);
}

TEST(JournalTest, ClearRestartsIdsKeepsEnabled) {
  Journal journal;
  journal.enable(8);
  journal.append(make_record(JournalKind::kToneEmitted, 1));
  journal.clear();
  EXPECT_TRUE(journal.enabled());
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.append(make_record(JournalKind::kToneEmitted, 2)), 1u);
}

// Appends `n` records; the i-th sits at sim time base + i.
void fill(Journal& journal, std::size_t n, std::int64_t base) {
  for (std::size_t i = 0; i < n; ++i) {
    journal.append(make_record(JournalKind::kToneEmitted,
                               base + static_cast<std::int64_t>(i)));
  }
}

// `reused` must answer every query as `fresh` does, for every id either
// journal has ever minted (`max_id`).
void expect_same_view(const Journal& reused, const Journal& fresh,
                      CauseId max_id) {
  EXPECT_EQ(reused.size(), fresh.size());
  EXPECT_EQ(reused.appended(), fresh.appended());
  EXPECT_EQ(reused.evicted(), fresh.evicted());
  EXPECT_EQ(reused.capacity(), fresh.capacity());
  const auto a = reused.snapshot();
  const auto b = fresh.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].sim_ns, b[i].sim_ns) << i;
  }
  for (CauseId id = 0; id <= max_id; ++id) {
    JournalRecord x, y;
    const bool found = reused.find(id, &x);
    ASSERT_EQ(found, fresh.find(id, &y)) << "id " << id;
    if (found) {
      EXPECT_EQ(x.sim_ns, y.sim_ns) << "id " << id;
    }
  }
}

// Records minted before the reset sit at sim time >= 1000, after it
// below 100, so any stale record a query returns shows in its sim_ns.
void expect_reset_leaves_fresh_journal(std::size_t before,
                                       void (*reset)(Journal&)) {
  for (const std::size_t after : {std::size_t{0}, std::size_t{3},
                                  std::size_t{11}}) {
    Journal reused;
    reused.enable(8);
    fill(reused, before, 1000);
    reset(reused);
    EXPECT_TRUE(reused.enabled());
    Journal fresh;
    fresh.enable(8);
    fill(reused, after, 0);
    fill(fresh, after, 0);
    SCOPED_TRACE("records after the reset: " + std::to_string(after));
    expect_same_view(reused, fresh, before + after);
  }
}

void clear_journal(Journal& journal) { journal.clear(); }
void re_enable_journal(Journal& journal) { journal.enable(8); }

TEST(JournalTest, ClearOfPartFilledRingLeavesFreshJournal) {
  expect_reset_leaves_fresh_journal(5, &clear_journal);
}

TEST(JournalTest, ClearOfWrappedRingLeavesFreshJournal) {
  expect_reset_leaves_fresh_journal(19, &clear_journal);
}

TEST(JournalTest, ReEnableAtSameCapacityLeavesFreshJournal) {
  expect_reset_leaves_fresh_journal(5, &re_enable_journal);
  expect_reset_leaves_fresh_journal(19, &re_enable_journal);
}

}  // namespace
}  // namespace mdn::obs
