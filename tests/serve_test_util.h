// Shared answer-comparison helpers for the serving-layer and query-path
// suites: "bit-identical" means vertex, score, AND contexts match rank for
// rank.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/types.h"

namespace tsd {
namespace test {

inline void ExpectSameEntries(const TopRResult& expected,
                              const TopRResult& actual,
                              const std::string& label) {
  ASSERT_EQ(expected.entries.size(), actual.entries.size()) << label;
  for (std::size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(expected.entries[i].vertex, actual.entries[i].vertex)
        << label << " rank=" << i;
    EXPECT_EQ(expected.entries[i].score, actual.entries[i].score)
        << label << " rank=" << i;
    EXPECT_EQ(expected.entries[i].contexts, actual.entries[i].contexts)
        << label << " rank=" << i;
  }
}

/// Bool-returning flavor for worker threads, where gtest assertions cannot
/// fail the test directly.
inline bool SameEntries(const TopRResult& a, const TopRResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].vertex != b.entries[i].vertex ||
        a.entries[i].score != b.entries[i].score ||
        a.entries[i].contexts != b.entries[i].contexts) {
      return false;
    }
  }
  return true;
}

}  // namespace test
}  // namespace tsd
