// Tests for the Argo-Proxy batch client simulation and sub-domain
// organization.

#include <gtest/gtest.h>

#include <set>

#include "corpus/fact_matcher.hpp"
#include "corpus/realization.hpp"
#include "llm/argo_proxy.hpp"
#include "parallel/thread_pool.hpp"
#include "qgen/benchmark_builder.hpp"

namespace mcqa::llm {
namespace {

const corpus::KnowledgeBase& test_kb() {
  static const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
      corpus::KbConfig{.facts_per_topic = 12, .seed = 101, .math_fraction = 0.4});
  return kb;
}

std::vector<chunk::Chunk> test_chunks(std::size_t n) {
  std::vector<chunk::Chunk> chunks;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& f = test_kb().facts()[i % test_kb().facts().size()];
    chunk::Chunk c;
    c.chunk_id = "proxychunk_" + std::to_string(i);
    c.doc_id = "doc";
    c.text = corpus::realize_statement(test_kb(), f, 0);
    chunks.push_back(std::move(c));
  }
  return chunks;
}

TEST(ProxyStats, EmptyStatsRatesAreZeroNotNan) {
  const ProxyStats stats;  // nothing recorded: all denominators zero
  EXPECT_EQ(stats.throughput_per_s(), 0.0);
  EXPECT_EQ(stats.retry_rate(), 0.0);
  EXPECT_EQ(stats.failure_rate(), 0.0);
  EXPECT_EQ(stats.mean_batch_fill(), 0.0);
}

TEST(ProxyStats, RatesMatchCountersWhenPopulated) {
  ProxyStats stats;
  stats.requests = 100;
  stats.batches = 25;
  stats.attempts = 110;
  stats.retries = 11;
  stats.permanent_failures = 2;
  stats.simulated_wall_ms = 500.0;
  EXPECT_DOUBLE_EQ(stats.throughput_per_s(), 200.0);
  EXPECT_DOUBLE_EQ(stats.retry_rate(), 0.1);
  EXPECT_DOUBLE_EQ(stats.failure_rate(), 0.02);
  EXPECT_DOUBLE_EQ(stats.mean_batch_fill(), 4.0);
}

TEST(ArgoProxy, AllRequestsSucceedWithLowFailureRate) {
  const corpus::FactMatcher matcher(test_kb());
  const TeacherModel teacher(test_kb(), matcher);
  ProxyConfig cfg;
  cfg.transient_failure_rate = 0.05;
  cfg.max_retries = 4;
  const BatchTeacherClient client(teacher, cfg);

  ProxyStats stats;
  const auto drafts = client.generate_mcqs(test_chunks(100), &stats);
  EXPECT_EQ(drafts.size(), 100u);
  EXPECT_EQ(stats.requests, 100u);
  EXPECT_EQ(stats.permanent_failures, 0u);  // P(5 fails) ~ 3e-7 per req
  // Fact-bearing chunks must produce drafts.
  std::size_t produced = 0;
  for (const auto& d : drafts) produced += d.has_value() ? 1 : 0;
  EXPECT_GT(produced, 90u);
}

TEST(ArgoProxy, DeterministicAcrossRuns) {
  const corpus::FactMatcher matcher(test_kb());
  const TeacherModel teacher(test_kb(), matcher);
  const BatchTeacherClient client(teacher, ProxyConfig{});
  ProxyStats a;
  ProxyStats b;
  const auto d1 = client.generate_mcqs(test_chunks(64), &a);
  const auto d2 = client.generate_mcqs(test_chunks(64), &b);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_DOUBLE_EQ(a.simulated_wall_ms, b.simulated_wall_ms);
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].has_value(), d2[i].has_value());
    if (d1[i].has_value()) {
      EXPECT_EQ(d1[i]->stem, d2[i]->stem);
    }
  }
}

TEST(ArgoProxy, CertainFailureExhaustsRetries) {
  const corpus::FactMatcher matcher(test_kb());
  const TeacherModel teacher(test_kb(), matcher);
  ProxyConfig cfg;
  cfg.transient_failure_rate = 1.0;
  cfg.max_retries = 2;
  const BatchTeacherClient client(teacher, cfg);
  ProxyStats stats;
  const auto drafts = client.generate_mcqs(test_chunks(10), &stats);
  EXPECT_EQ(stats.permanent_failures, 10u);
  EXPECT_EQ(stats.attempts, 30u);  // 1 + 2 retries each
  for (const auto& d : drafts) EXPECT_FALSE(d.has_value());
}

TEST(ArgoProxy, RetriesHappenAtModerateRates) {
  const corpus::FactMatcher matcher(test_kb());
  const TeacherModel teacher(test_kb(), matcher);
  ProxyConfig cfg;
  cfg.transient_failure_rate = 0.3;
  const BatchTeacherClient client(teacher, cfg);
  ProxyStats stats;
  client.generate_mcqs(test_chunks(200), &stats);
  EXPECT_GT(stats.retries, 30u);
  EXPECT_GT(stats.attempts, stats.requests);
}

TEST(ArgoProxy, BatchCountMatchesCeilDivision) {
  const corpus::FactMatcher matcher(test_kb());
  const TeacherModel teacher(test_kb(), matcher);
  ProxyConfig cfg;
  cfg.batch_size = 8;
  cfg.transient_failure_rate = 0.0;
  const BatchTeacherClient client(teacher, cfg);
  ProxyStats stats;
  client.generate_mcqs(test_chunks(20), &stats);
  EXPECT_EQ(stats.batches, 3u);  // ceil(20/8)
}

TEST(ArgoProxy, LargerBatchesAmortizeOverhead) {
  const corpus::FactMatcher matcher(test_kb());
  const TeacherModel teacher(test_kb(), matcher);
  const auto wall = [&](std::size_t batch_size) {
    ProxyConfig cfg;
    cfg.batch_size = batch_size;
    cfg.workers = 1;
    cfg.transient_failure_rate = 0.0;
    const BatchTeacherClient client(teacher, cfg);
    ProxyStats stats;
    client.generate_mcqs(test_chunks(128), &stats);
    return stats.simulated_wall_ms;
  };
  // With fixed per-call overhead, batch=1 pays it 128x; batch=32 pays 4x.
  EXPECT_GT(wall(1), wall(32) * 1.5);
}

TEST(ArgoProxy, MoreWorkersShrinkMakespan) {
  const corpus::FactMatcher matcher(test_kb());
  const TeacherModel teacher(test_kb(), matcher);
  const auto wall = [&](std::size_t workers) {
    ProxyConfig cfg;
    cfg.workers = workers;
    cfg.batch_size = 4;
    cfg.transient_failure_rate = 0.0;
    const BatchTeacherClient client(teacher, cfg);
    ProxyStats stats;
    client.generate_mcqs(test_chunks(128), &stats);
    return stats.simulated_wall_ms;
  };
  EXPECT_GT(wall(1), wall(8) * 3.0);  // near-linear on uniform batches
}

TEST(ArgoProxy, AttemptFailureIsPerAttempt) {
  const corpus::FactMatcher matcher(test_kb());
  const TeacherModel teacher(test_kb(), matcher);
  ProxyConfig cfg;
  cfg.transient_failure_rate = 0.5;
  const BatchTeacherClient client(teacher, cfg);
  // The same request either fails or not deterministically per attempt,
  // and different attempts are independent draws.
  bool any_differ = false;
  for (int i = 0; i < 50 && !any_differ; ++i) {
    const std::string id = "req_" + std::to_string(i);
    any_differ = client.attempt_fails(id, 0) != client.attempt_fails(id, 1);
  }
  EXPECT_TRUE(any_differ);
  EXPECT_EQ(client.attempt_fails("fixed", 0),
            client.attempt_fails("fixed", 0));
}

// --- sub-domain organization -----------------------------------------------------

TEST(SubDomain, EveryTopicMapsToAKnownSubDomain) {
  const std::set<std::string_view> known{
      "molecular-mechanisms", "clinical-radiotherapy", "radiation-physics"};
  std::set<std::string_view> seen;
  for (const auto topic : corpus::topic_bank()) {
    const auto sd = corpus::sub_domain_of_topic(topic);
    EXPECT_TRUE(known.contains(sd)) << topic << " -> " << sd;
    seen.insert(sd);
  }
  // The taxonomy actually partitions into all three.
  EXPECT_EQ(seen.size(), 3u);
}

TEST(SubDomain, BenchmarkRecordsCarrySubDomain) {
  const corpus::FactMatcher matcher(test_kb());
  const TeacherModel teacher(test_kb(), matcher);
  std::vector<chunk::Chunk> chunks = test_chunks(80);
  const qgen::BenchmarkBuilder builder(teacher);
  parallel::ThreadPool pool(2);
  const auto records = builder.build(chunks, pool);
  ASSERT_FALSE(records.empty());
  for (const auto& r : records) {
    EXPECT_FALSE(r.sub_domain.empty()) << r.record_id;
    // Consistent with the probed fact's topic.
    const auto& topic = test_kb().topic(test_kb().fact(r.fact).topic);
    EXPECT_EQ(r.sub_domain, corpus::sub_domain_of_topic(topic.name));
  }
}

TEST(SubDomain, SurvivesJsonRoundTrip) {
  qgen::McqRecord r;
  r.sub_domain = "radiation-physics";
  const qgen::McqRecord back = qgen::McqRecord::from_json(r.to_json());
  EXPECT_EQ(back.sub_domain, "radiation-physics");
}

}  // namespace
}  // namespace mcqa::llm
