// Functional tests for the real workload implementations.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <queue>
#include <sstream>

#include "workloads/bfs.hpp"
#include "workloads/cg.hpp"
#include "workloads/face_detect.hpp"
#include "workloads/image.hpp"

namespace xartrek::workloads {
namespace {

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

}  // namespace
}  // namespace xartrek::workloads
