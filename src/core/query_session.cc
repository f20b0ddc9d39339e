// Out-of-line pieces of the session API: the one-query TopR and the
// DiversitySearcher convenience overloads live here (types.h only
// forward-declares QuerySession, keeping the result types header free of
// pipeline machinery).
#include "core/query_session.h"

#include <span>
#include <utility>

#include "core/types.h"

namespace tsd {

DiversitySearcher::DiversitySearcher() = default;
DiversitySearcher::~DiversitySearcher() = default;
DiversitySearcher::DiversitySearcher(DiversitySearcher&&) noexcept = default;
DiversitySearcher& DiversitySearcher::operator=(DiversitySearcher&&) noexcept =
    default;

QuerySession& DiversitySearcher::default_session() {
  if (default_session_ == nullptr) {
    default_session_ = std::make_unique<QuerySession>(query_options_);
  } else {
    default_session_->set_options(query_options_);
  }
  return *default_session_;
}

TopRResult DiversitySearcher::TopR(std::uint32_t r, std::uint32_t k,
                                   QuerySession& session) const {
  const BatchQuery query{k, r};
  return std::move(SearchBatch(std::span(&query, 1), session).front());
}

TopRResult DiversitySearcher::TopR(std::uint32_t r, std::uint32_t k) {
  return TopR(r, k, default_session());
}

std::vector<TopRResult> DiversitySearcher::SearchBatch(
    std::span<const BatchQuery> queries) {
  return SearchBatch(queries, default_session());
}

}  // namespace tsd
