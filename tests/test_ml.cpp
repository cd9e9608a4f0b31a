#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "ml/dataset.hpp"
#include "ml/detector.hpp"
#include "ml/gbt.hpp"
#include "ml/lstm.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"

namespace valkyrie::ml {
namespace {

// --- Shared synthetic corpus -------------------------------------------------
//
// Two well-separated HPC populations: "benign" (high instructions, low LLC
// misses) and "attack" (the reverse), with noise. Every model family must
// learn to separate them; that is the substrate of the Fig. 1 experiment.

hpc::HpcSample draw(util::Rng& rng, bool malicious) {
  hpc::HpcSample s;
  const double scale = malicious ? 1.0 : 8.0;
  s[hpc::Event::kInstructions] =
      std::max(0.0, rng.normal(3e8 * scale / 8.0, 2e7));
  s[hpc::Event::kCycles] = std::max(0.0, rng.normal(3.5e8, 1e7));
  s[hpc::Event::kLlcMisses] =
      std::max(0.0, rng.normal(malicious ? 4e7 : 4e5, malicious ? 4e6 : 8e4));
  s[hpc::Event::kL1dMisses] =
      std::max(0.0, rng.normal(malicious ? 6e7 : 2e6, malicious ? 5e6 : 3e5));
  s[hpc::Event::kMemBandwidth] =
      std::max(0.0, rng.normal(malicious ? 2e9 : 5e7, malicious ? 2e8 : 1e7));
  return s;
}

TraceSet make_corpus(int per_class, int trace_len, std::uint64_t seed) {
  util::Rng rng(seed);
  TraceSet set;
  for (int label = 0; label < 2; ++label) {
    for (int t = 0; t < per_class; ++t) {
      LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name = (trace.malicious ? "attack-" : "benign-") +
                   std::to_string(t);
      for (int i = 0; i < trace_len; ++i) {
        trace.samples.push_back(draw(rng, trace.malicious));
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

double trace_accuracy(const Detector& d, const TraceSet& set,
                      std::size_t window) {
  ConfusionMatrix cm;
  for (const LabeledTrace& t : set.traces) {
    const std::size_t n = std::min(window, t.samples.size());
    const bool malicious =
        d.infer({t.samples.data(), n}) == Inference::kMalicious;
    cm.record(t.malicious, malicious);
  }
  return cm.accuracy();
}

// --- Metrics -----------------------------------------------------------------

TEST(Metrics, PerfectClassifier) {
  ConfusionMatrix cm;
  for (int i = 0; i < 10; ++i) {
    cm.record(true, true);
    cm.record(false, false);
  }
  EXPECT_DOUBLE_EQ(cm.f1(), 1.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 1.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 1.0);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
}

TEST(Metrics, KnownValues) {
  ConfusionMatrix cm;
  cm.true_positives = 8;
  cm.false_negatives = 2;
  cm.false_positives = 4;
  cm.true_negatives = 6;
  EXPECT_DOUBLE_EQ(cm.precision(), 8.0 / 12.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.8);
  EXPECT_NEAR(cm.f1(), 2 * (8.0 / 12.0) * 0.8 / ((8.0 / 12.0) + 0.8), 1e-12);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.4);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.7);
  EXPECT_EQ(cm.total(), 20u);
}

TEST(Metrics, DegenerateCasesAreZeroNotNan) {
  ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.f1(), 0.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.0);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.0);
}

TEST(Metrics, Accumulation) {
  ConfusionMatrix a;
  a.record(true, true);
  ConfusionMatrix b;
  b.record(false, true);
  a += b;
  EXPECT_EQ(a.true_positives, 1u);
  EXPECT_EQ(a.false_positives, 1u);
}

// --- Dataset -----------------------------------------------------------------

TEST(Dataset, FlattenKeepsLabelsAndCounts) {
  const TraceSet set = make_corpus(3, 5, 1);
  const std::vector<Example> flat = flatten(set);
  EXPECT_EQ(flat.size(), 2u * 3u * 5u);
  const auto malicious = static_cast<std::size_t>(
      std::count_if(flat.begin(), flat.end(),
                    [](const Example& e) { return e.malicious; }));
  EXPECT_EQ(malicious, 15u);
  EXPECT_EQ(flat.front().features.size(), hpc::kFeatureDim);
}

TEST(Dataset, SplitPreservesClassBalanceByTrace) {
  const TraceSet set = make_corpus(10, 3, 2);
  util::Rng rng(3);
  const TraceSplit split = split_traces(set, 0.7, rng);
  EXPECT_EQ(split.train.traces.size() + split.test.traces.size(), 20u);
  EXPECT_EQ(split.train.count_malicious(), 7u);
  EXPECT_EQ(split.test.count_malicious(), 3u);
  EXPECT_EQ(split.train.count_benign(), 7u);
}

TEST(Dataset, ShuffleIsPermutation) {
  std::vector<Example> xs;
  for (int i = 0; i < 20; ++i) {
    xs.push_back({{static_cast<double>(i)}, false});
  }
  util::Rng rng(4);
  shuffle(xs, rng);
  double sum = 0;
  for (const Example& e : xs) sum += e.features[0];
  EXPECT_DOUBLE_EQ(sum, 190.0);  // 0+..+19 preserved
}

TEST(Dataset, WindowFeaturesConcentrate) {
  // The variance features shrink in expectation as windows grow — the
  // statistical driver behind Fig. 1.
  util::Rng rng(5);
  LabeledTrace trace;
  for (int i = 0; i < 200; ++i) trace.samples.push_back(draw(rng, false));
  const auto f_small =
      window_features({trace.samples.data(), 3});
  const auto f_large =
      window_features({trace.samples.data(), trace.samples.size()});
  ASSERT_EQ(f_small.size(), kWindowFeatureDim);
  // Mean features agree to within noise; both are near the true mean.
  EXPECT_NEAR(f_small[0], f_large[0], 1.0);
}

// --- Statistical detector ----------------------------------------------------

TEST(StatDetector, SeparatesPopulations) {
  const TraceSet train = make_corpus(10, 20, 6);
  StatisticalDetector det;
  det.fit(flatten(train));
  const TraceSet test = make_corpus(10, 20, 7);
  EXPECT_GE(trace_accuracy(det, test, 1), 0.95);
}

TEST(StatDetector, ScoreLowForBenignHighForAttack) {
  const TraceSet train = make_corpus(10, 20, 8);
  StatisticalDetector det;
  det.fit(flatten(train));
  util::Rng rng(9);
  const auto benign_f = hpc::to_features(draw(rng, false));
  const auto attack_f = hpc::to_features(draw(rng, true));
  EXPECT_LT(det.score(benign_f), det.score(attack_f));
}

TEST(StatDetector, UntrainedThrows) {
  StatisticalDetector det;
  const std::vector<double> f(hpc::kFeatureDim, 0.0);
  EXPECT_THROW((void)det.score(f), std::logic_error);
}

TEST(StatDetector, NoBenignExamplesThrows) {
  StatisticalDetector det;
  std::vector<Example> only_attack{{std::vector<double>(12, 1.0), true}};
  EXPECT_THROW(det.fit(only_attack), std::invalid_argument);
}

TEST(StatDetector, EmptyWindowIsBenign) {
  StatisticalDetector det;
  EXPECT_EQ(det.infer(std::span<const hpc::HpcSample>{}), Inference::kBenign);
}

TEST(StatDetector, RejectsAFiniteVoteWindowLongerThanTheRing) {
  // A finite raw window may not ask for more samples than a producer
  // retains; newest-only and whole-window (running counts) stay legal.
  StatDetectorConfig config;
  for (const std::size_t legal :
       {std::size_t{1}, kHistoryWindow, StatisticalDetector::kWholeWindow}) {
    config.vote_window = legal;
    EXPECT_NO_THROW(StatisticalDetector{config}) << legal;
  }
  config.vote_window = kHistoryWindow + 1;
  EXPECT_THROW(StatisticalDetector{config}, std::invalid_argument);

  StatisticalDetector det;
  EXPECT_THROW(det.set_vote_window(kHistoryWindow + 1), std::invalid_argument);
  EXPECT_EQ(det.config().vote_window, 1u) << "a rejected window is no-op";
  det.set_vote_window(kHistoryWindow);
  EXPECT_EQ(det.config().vote_window, kHistoryWindow);
  det.set_vote_window(StatisticalDetector::kWholeWindow);
  EXPECT_EQ(det.config().vote_window, StatisticalDetector::kWholeWindow);
}

// --- MLP ---------------------------------------------------------------------

TEST(Mlp, RejectsBadArchitectures) {
  EXPECT_THROW(Mlp({4}), std::invalid_argument);
  EXPECT_THROW(Mlp({4, 2}), std::invalid_argument);  // output must be 1
}

TEST(Mlp, LearnsLinearlySeparableData) {
  util::Rng rng(10);
  std::vector<Example> xs;
  for (int i = 0; i < 400; ++i) {
    const bool pos = i % 2 == 0;
    const double base = pos ? 2.0 : -2.0;
    xs.push_back({{rng.normal(base, 0.5), rng.normal(-base, 0.5)}, pos});
  }
  Mlp mlp({2, 4, 1}, 11);
  MlpTrainOptions opts;
  opts.epochs = 40;
  mlp.train(xs, opts);
  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    const bool pos = i % 2 == 0;
    const double base = pos ? 2.0 : -2.0;
    const std::vector<double> x{rng.normal(base, 0.5), rng.normal(-base, 0.5)};
    if ((mlp.predict(x) > 0.5) == pos) ++correct;
  }
  EXPECT_GE(correct, 190);
}

TEST(Mlp, SmallAnnDetectorSeparatesTraces) {
  const TraceSet train = make_corpus(12, 30, 12);
  const MlpDetector det = MlpDetector::make_small_ann(train, 13);
  const TraceSet test = make_corpus(8, 30, 14);
  EXPECT_GE(trace_accuracy(det, test, 30), 0.9);
  EXPECT_EQ(det.name(), "small-ann");
}

TEST(Mlp, LargeAnnArchitecture) {
  const TraceSet train = make_corpus(6, 10, 15);
  const MlpDetector det = MlpDetector::make_large_ann(train, 16);
  EXPECT_EQ(det.model().layer_sizes(),
            (std::vector<std::size_t>{kWindowFeatureDim, 8, 8, 1}));
}

TEST(Mlp, TrainRequiresBothClasses) {
  Mlp mlp({2, 2, 1});
  std::vector<Example> xs{{{1.0, 2.0}, true}};
  EXPECT_THROW(mlp.train(xs, {}), std::invalid_argument);
}

// --- SVM ---------------------------------------------------------------------

TEST(Svm, LearnsLinearlySeparableData) {
  util::Rng rng(17);
  std::vector<Example> xs;
  for (int i = 0; i < 400; ++i) {
    const bool pos = i % 2 == 0;
    const double base = pos ? 1.5 : -1.5;
    xs.push_back({{rng.normal(base, 0.4), rng.normal(base, 0.4)}, pos});
  }
  LinearSvm svm;
  svm.train(xs, {});
  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    const bool pos = i % 2 == 0;
    const double base = pos ? 1.5 : -1.5;
    const std::vector<double> x{rng.normal(base, 0.4), rng.normal(base, 0.4)};
    if ((svm.decision(x) > 0.0) == pos) ++correct;
  }
  EXPECT_GE(correct, 190);
}

TEST(Svm, DetectorMajorityVotesOverWindow) {
  const TraceSet train = make_corpus(10, 20, 18);
  const SvmDetector det = SvmDetector::make(train, 19);
  const TraceSet test = make_corpus(8, 20, 20);
  EXPECT_GE(trace_accuracy(det, test, 20), 0.9);
}

TEST(Svm, UntrainedThrows) {
  LinearSvm svm;
  EXPECT_THROW((void)svm.decision(std::vector<double>{1.0}), std::logic_error);
}

// --- GBT ---------------------------------------------------------------------

TEST(Gbt, LearnsNonLinearBoundary) {
  // XOR-ish: class = sign(x*y); trees must capture the interaction.
  util::Rng rng(21);
  std::vector<Example> xs;
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(-1, 1);
    const double y = rng.uniform(-1, 1);
    xs.push_back({{x, y}, x * y > 0});
  }
  GradientBoostedTrees gbt;
  gbt.train(xs);
  int correct = 0;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(-1, 1);
    const double y = rng.uniform(-1, 1);
    if ((gbt.predict_logit({std::vector<double>{x, y}}) > 0) == (x * y > 0)) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 270);
}

TEST(Gbt, DetectorSeparatesTraces) {
  const TraceSet train = make_corpus(10, 20, 22);
  const GbtDetector det = GbtDetector::make(train);
  const TraceSet test = make_corpus(8, 20, 23);
  EXPECT_GE(trace_accuracy(det, test, 20), 0.9);
  EXPECT_EQ(det.name(), "xgboost");
}

TEST(Gbt, PredictIsSigmoidOfLogit) {
  const TraceSet train = make_corpus(5, 10, 24);
  GradientBoostedTrees gbt;
  gbt.train(flatten(train));
  const std::vector<double> f(hpc::kFeatureDim, 1.0);
  const double p = gbt.predict(f);
  const double logit = gbt.predict_logit(f);
  EXPECT_NEAR(p, 1.0 / (1.0 + std::exp(-logit)), 1e-12);
}

TEST(Gbt, ConfigRespected) {
  GbtConfig cfg;
  cfg.num_trees = 7;
  GradientBoostedTrees gbt(cfg);
  gbt.train(flatten(make_corpus(5, 10, 25)));
  EXPECT_EQ(gbt.tree_count(), 7u);
}

TEST(Gbt, SingleClassThrows) {
  GradientBoostedTrees gbt;
  std::vector<Example> xs{{std::vector<double>{1.0}, true}};
  EXPECT_THROW(gbt.train(xs), std::invalid_argument);
}

// --- LSTM --------------------------------------------------------------------

TEST(Lstm, LearnsSequenceClassification) {
  const TraceSet train = make_corpus(10, 25, 26);
  LstmTrainOptions opts;
  opts.epochs = 12;
  const LstmDetector det = LstmDetector::make(train, 27, opts);
  const TraceSet test = make_corpus(8, 25, 28);
  EXPECT_GE(trace_accuracy(det, test, 25), 0.9);
}

TEST(Lstm, EmptySequencePredictsBenign) {
  Lstm model;
  EXPECT_DOUBLE_EQ(model.predict({}), 0.0);
  LstmDetector det(Lstm{});
  EXPECT_EQ(det.infer(std::span<const hpc::HpcSample>{}), Inference::kBenign);
}

TEST(Lstm, RejectsDimensionMismatch) {
  Lstm model;  // input dim = kFeatureDim
  const std::vector<std::vector<double>> bad{{1.0, 2.0}};
  EXPECT_THROW((void)model.predict(bad), std::invalid_argument);
}

TEST(Lstm, DefaultArchitectureMatchesPaper) {
  // Fig. 6b's detector: hidden layer of 8 nodes.
  const Lstm model;
  EXPECT_EQ(model.config().hidden_dim, 8u);
}

// Property: every detector family improves (or at least does not get
// worse) when given more measurements — the monotonic backbone of Fig. 1.
class WindowGrowth : public ::testing::TestWithParam<int> {};

TEST_P(WindowGrowth, MoreMeasurementsNoWorse) {
  // Use a harder corpus (closer populations) so small windows err.
  const TraceSet train = make_corpus(12, 40, 29);
  const SvmDetector det = SvmDetector::make(train, 30);
  const TraceSet test = make_corpus(10, 40, static_cast<std::uint64_t>(
                                                 31 + GetParam()));
  const double small = trace_accuracy(det, test, 2);
  const double large = trace_accuracy(det, test, 40);
  EXPECT_GE(large + 0.05, small);  // allow sampling slack
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowGrowth, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace valkyrie::ml
