// Functional tests for the real workload implementations.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <queue>
#include <sstream>

#include "workloads/bfs.hpp"
#include "workloads/cg.hpp"
#include "workloads/digitrec.hpp"
#include "workloads/face_detect.hpp"
#include "workloads/image.hpp"
#include "workloads/mg.hpp"

namespace xartrek::workloads {
namespace {

// --- digitrec ----------------------------------------------------------

TEST(DigitrecTest, PopcountAndHamming) {
  DigitBits zero{};
  EXPECT_EQ(popcount196(zero), 0);
  DigitBits a{};
  a[0] = 0b1011;  // 3 bits
  EXPECT_EQ(popcount196(a), 3);
  DigitBits b{};
  b[0] = 0b0011;
  EXPECT_EQ(hamming196(a, b), 1);
  EXPECT_EQ(hamming196(a, a), 0);
  // Bits above 196 are masked out.
  DigitBits top{};
  top[3] = 0xFFFF'FFFF'FFFF'FFF0ull;  // only low 4 bits of word 3 count
  EXPECT_EQ(popcount196(top), 0);
}

TEST(DigitrecTest, KnnFindsExactMatch) {
  Rng rng(1);
  const auto ds = make_synthetic_digits(rng, 20, 0, 0.5);
  // Classify a training sample itself: its own digest is distance 0.
  for (int i = 0; i < 10; ++i) {
    const auto& t = ds.training[static_cast<std::size_t>(i) * 20];
    EXPECT_EQ(knn_classify(ds.training, t.bits, 1), t.label);
  }
}

TEST(DigitrecTest, HighAccuracyAtLowNoise) {
  Rng rng(7);
  const auto ds = make_synthetic_digits(rng, 50, 400, 3.0);
  const auto result = digitrec_kernel(ds, 3);
  EXPECT_EQ(result.total, 400);
  EXPECT_GT(result.accuracy(), 0.95);
}

TEST(DigitrecTest, AccuracyDegradesWithNoise) {
  Rng rng(7);
  const auto clean = make_synthetic_digits(rng, 50, 300, 2.0);
  Rng rng2(7);
  const auto noisy = make_synthetic_digits(rng2, 50, 300, 60.0);
  EXPECT_GT(digitrec_kernel(clean).accuracy(),
            digitrec_kernel(noisy).accuracy());
}

TEST(DigitrecTest, KnnRequiresTraining) {
  std::vector<LabeledDigit> empty;
  EXPECT_THROW((void)knn_classify(empty, DigitBits{}, 3), ContractViolation);
}

TEST(DigitrecTest, OpProfileStreamsTraining) {
  const auto ops = digitrec_op_profile(18'000);
  EXPECT_DOUBLE_EQ(ops.iterations_per_item, 18'000.0);
  EXPECT_EQ(ops.irregular_mem_ops, 0u);  // streaming, FPGA-friendly
}

// --- BFS ----------------------------------------------------------------

std::vector<std::int32_t> reference_bfs(const CsrGraph& g, int source) {
  std::vector<std::int32_t> depth(static_cast<std::size_t>(g.nodes), -1);
  std::queue<int> q;
  depth[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (auto i = g.row_ptr[static_cast<std::size_t>(u)];
         i < g.row_ptr[static_cast<std::size_t>(u) + 1]; ++i) {
      const auto v = g.adj[static_cast<std::size_t>(i)];
      if (depth[static_cast<std::size_t>(v)] < 0) {
        depth[static_cast<std::size_t>(v)] =
            depth[static_cast<std::size_t>(u)] + 1;
        q.push(static_cast<int>(v));
      }
    }
  }
  return depth;
}

class BfsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BfsPropertyTest, MatchesReferenceAndTriangleInequality) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto g = make_random_graph(rng, 500, 6.0);
  const auto depth = bfs_depths(g, 0);
  EXPECT_EQ(depth, reference_bfs(g, 0));
  // Backbone guarantees reachability.
  for (int v = 0; v < g.nodes; ++v) {
    EXPECT_GE(depth[static_cast<std::size_t>(v)], 0) << v;
  }
  // Edge relaxation: depth[v] <= depth[u] + 1 for every edge (u,v).
  for (int u = 0; u < g.nodes; ++u) {
    for (auto i = g.row_ptr[static_cast<std::size_t>(u)];
         i < g.row_ptr[static_cast<std::size_t>(u) + 1]; ++i) {
      const auto v = g.adj[static_cast<std::size_t>(i)];
      EXPECT_LE(depth[static_cast<std::size_t>(v)],
                depth[static_cast<std::size_t>(u)] + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsPropertyTest, ::testing::Range(1, 6));

TEST(BfsTest, GraphShapeMatchesRequest) {
  Rng rng(3);
  const auto g = make_random_graph(rng, 1000, 10.0);
  EXPECT_EQ(g.nodes, 1000);
  EXPECT_NEAR(static_cast<double>(g.edges()) / g.nodes, 10.0, 1.0);
  EXPECT_EQ(g.row_ptr.size(), 1001u);
  EXPECT_EQ(g.row_ptr.back(), static_cast<std::int32_t>(g.adj.size()));
}

TEST(BfsTest, OpProfileIsIrregular) {
  const auto ops = bfs_op_profile(10.0);
  EXPECT_GT(ops.irregular_mem_ops, 0u);  // the FPGA-hostile signature
}

// --- images -------------------------------------------------------------

TEST(ImageTest, PgmRoundTrip) {
  Rng rng(5);
  const auto scene = make_scene(rng, 64, 48, 1, 24, 32);
  std::stringstream ss;
  write_pgm(ss, scene.image);
  const auto back = read_pgm(ss);
  EXPECT_EQ(back.width(), 64);
  EXPECT_EQ(back.height(), 48);
  EXPECT_EQ(back.pixels(), scene.image.pixels());
}

TEST(ImageTest, ReadPgmRejectsGarbage) {
  std::stringstream ss("P6\n2 2\n255\nxxxx");
  EXPECT_THROW(read_pgm(ss), Error);
}

TEST(ImageTest, SceneRespectsFaceCountAndBounds) {
  Rng rng(11);
  const auto scene = make_scene(rng, 320, 240, 4);
  EXPECT_EQ(scene.faces.size(), 4u);
  for (const auto& f : scene.faces) {
    EXPECT_GE(f.x, 0);
    EXPECT_GE(f.y, 0);
    EXPECT_LE(f.x + f.size, 320);
    EXPECT_LE(f.y + f.size, 240);
    EXPECT_GE(f.size, 24);
  }
}

// --- face detection ------------------------------------------------------

TEST(IntegralImageTest, MatchesNaiveSums) {
  Rng rng(13);
  const auto scene = make_scene(rng, 40, 30, 0);
  const IntegralImage ii(scene.image);
  auto naive = [&](int x, int y, int w, int h) {
    std::uint64_t s = 0;
    for (int yy = y; yy < y + h; ++yy) {
      for (int xx = x; xx < x + w; ++xx) s += scene.image.at(xx, yy);
    }
    return s;
  };
  for (auto [x, y, w, h] : std::vector<std::array<int, 4>>{
           {0, 0, 40, 30}, {5, 7, 10, 3}, {39, 29, 1, 1}, {0, 29, 40, 1}}) {
    EXPECT_EQ(ii.rect_sum(x, y, w, h), naive(x, y, w, h));
  }
}

TEST(IntegralImageTest, RejectsOutOfBounds) {
  GrayImage img(10, 10, 100);
  const IntegralImage ii(img);
  EXPECT_THROW((void)ii.rect_sum(5, 5, 10, 1), ContractViolation);
}

TEST(FaceDetectTest, DetectsPlantedFaces) {
  Rng rng(17);
  const auto scene = make_scene(rng, 320, 240, 3, 28, 64);
  const auto detections = detect_faces(scene.image);
  // Recall: every planted face matched by some detection (IoU > 0.3).
  int matched = 0;
  for (const auto& f : scene.faces) {
    const Detection truth{f.x, f.y, f.size, 0.0};
    for (const auto& d : detections) {
      if (detection_iou(truth, d) > 0.3) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_EQ(matched, 3) << "missed " << 3 - matched << " planted faces";
  // Precision: no detection far away from every face.
  for (const auto& d : detections) {
    bool near = false;
    for (const auto& f : scene.faces) {
      if (detection_iou(Detection{f.x, f.y, f.size, 0.0}, d) > 0.1) {
        near = true;
        break;
      }
    }
    EXPECT_TRUE(near) << "spurious detection at (" << d.x << "," << d.y
                      << ") size " << d.size;
  }
}

TEST(FaceDetectTest, EmptySceneYieldsNoDetections) {
  Rng rng(19);
  const auto scene = make_scene(rng, 200, 150, 0);
  EXPECT_TRUE(detect_faces(scene.image).empty());
}

TEST(FaceDetectTest, NmsSuppressesOverlaps) {
  std::vector<Detection> dets = {
      {10, 10, 30, 5.0}, {12, 12, 30, 3.0}, {100, 100, 30, 4.0}};
  const auto kept = non_max_suppress(dets, 0.3);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].score, 5.0);  // highest survives
  EXPECT_DOUBLE_EQ(kept[1].score, 4.0);
}

TEST(FaceDetectTest, IouProperties) {
  const Detection a{0, 0, 10, 0};
  EXPECT_DOUBLE_EQ(detection_iou(a, a), 1.0);
  const Detection far{100, 100, 10, 0};
  EXPECT_DOUBLE_EQ(detection_iou(a, far), 0.0);
  const Detection half{5, 0, 10, 0};
  EXPECT_NEAR(detection_iou(a, half), 50.0 / 150.0, 1e-9);
}

// --- CG -------------------------------------------------------------------

TEST(CgTest, MatrixIsSymmetricAndDiagonallyDominant) {
  Rng rng(23);
  const auto a = make_spd_matrix(rng, 64, 6);
  // Symmetry: collect (i,j,v) and check the transpose entry exists.
  std::map<std::pair<int, int>, double> entries;
  for (int i = 0; i < a.n; ++i) {
    for (auto p = a.row_ptr[static_cast<std::size_t>(i)];
         p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      entries[{i, a.col_idx[static_cast<std::size_t>(p)]}] =
          a.values[static_cast<std::size_t>(p)];
    }
  }
  for (const auto& [ij, v] : entries) {
    auto it = entries.find({ij.second, ij.first});
    ASSERT_NE(it, entries.end());
    EXPECT_DOUBLE_EQ(it->second, v);
  }
  // Dominance: diag > sum |off-diag| per row.
  for (int i = 0; i < a.n; ++i) {
    double diag = 0.0;
    double off = 0.0;
    for (auto p = a.row_ptr[static_cast<std::size_t>(i)];
         p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const auto j = a.col_idx[static_cast<std::size_t>(p)];
      if (j == i) diag = a.values[static_cast<std::size_t>(p)];
      else off += std::abs(a.values[static_cast<std::size_t>(p)]);
    }
    EXPECT_GT(diag, off);
  }
}

TEST(CgTest, ConjGradReducesResidual) {
  Rng rng(29);
  const auto a = make_spd_matrix(rng, 128, 6);
  std::vector<double> x(128, 1.0);
  std::vector<double> z;
  const double r25 = conj_grad(a, x, z, 25);
  std::vector<double> z5;
  const double r5 = conj_grad(a, x, z5, 5);
  EXPECT_LT(r25, r5);
  EXPECT_LT(r25, 1e-6);  // SPD + dominance: fast convergence
}

TEST(CgTest, BenchmarkConvergesZeta) {
  Rng rng(31);
  const auto cls = CgClass::class_t();
  const auto a = make_spd_matrix(rng, cls.n, cls.nz_per_row);
  const auto result = cg_benchmark(a, cls);
  EXPECT_EQ(result.outer_iterations, cls.outer_iters);
  // zeta = shift + 1/(x . z) with A close to I-scale: finite, near shift.
  EXPECT_GT(result.zeta, cls.shift);
  EXPECT_LT(result.zeta, cls.shift + 5.0);
  EXPECT_LT(result.final_residual, 1e-6);
}

TEST(CgTest, ClassAParametersMatchNpb) {
  const auto a = CgClass::class_a();
  EXPECT_EQ(a.n, 14'000);
  EXPECT_EQ(a.outer_iters, 15);
  EXPECT_DOUBLE_EQ(a.shift, 20.0);
}

TEST(CgTest, OpProfileIsIrregular) {
  const auto ops = cg_op_profile(CgClass::class_a());
  EXPECT_GT(ops.irregular_mem_ops, 0u);
  EXPECT_GT(ops.iterations_per_item, 1e6);
}

// --- MG --------------------------------------------------------------------

TEST(MgTest, VcycleReducesResidual) {
  Rng rng(37);
  const int n = 16;
  const auto rhs = mg_random_rhs(rng, n);
  Grid3 u(n, 0.0);
  const double r0 = mg_residual_norm(u, rhs);
  mg_vcycle(u, rhs);
  const double r1 = mg_residual_norm(u, rhs);
  mg_vcycle(u, rhs);
  const double r2 = mg_residual_norm(u, rhs);
  EXPECT_LT(r1, r0 * 0.5);
  EXPECT_LT(r2, r1);
}

TEST(MgTest, SmoothingAloneConvergesSlowerThanVcycles) {
  // Multigrid's advantage is on the low-frequency error modes that
  // point smoothing barely touches; compare at equal smoothing work
  // (one V-cycle ~ 7 fine-grid sweeps) over several cycles.
  Rng rng(41);
  const int n = 16;
  const auto rhs = mg_random_rhs(rng, n);
  Grid3 smoothed(n, 0.0);
  for (int i = 0; i < 28; ++i) mg_smooth(smoothed, rhs);
  Grid3 cycled(n, 0.0);
  for (int i = 0; i < 4; ++i) mg_vcycle(cycled, rhs);
  EXPECT_LT(mg_residual_norm(cycled, rhs),
            mg_residual_norm(smoothed, rhs));
}

TEST(MgTest, RestrictionAveragesChildren) {
  Grid3 fine(8, 2.0);
  Grid3 coarse(4);
  mg_restrict(fine, coarse);
  for (double v : coarse.data()) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(MgTest, PeriodicIndexingWraps) {
  Grid3 g(4);
  g.set(0, 0, 0, 9.0);
  EXPECT_DOUBLE_EQ(g.at(4, 4, 4), 9.0);
  EXPECT_DOUBLE_EQ(g.at(-4, 0, 0), 9.0);
}

TEST(MgTest, WorkModelGrowsWithGrid) {
  EXPECT_GT(mg_vcycle_points(32), mg_vcycle_points(16));
  EXPECT_GT(mg_vcycle_points(16), 7ull * 16 * 16 * 16);
}

TEST(MgTest, RandomRhsIsZeroMean) {
  Rng rng(43);
  const auto rhs = mg_random_rhs(rng, 8);
  double sum = 0.0;
  for (double v : rhs.data()) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

}  // namespace
}  // namespace xartrek::workloads
