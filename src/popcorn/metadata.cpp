#include "popcorn/metadata.hpp"

#include "common/assert.hpp"

namespace xartrek::popcorn {

void MigrationMetadata::add_site(CallSiteMetadata site) {
  XAR_EXPECTS(find(site.function, site.site_id) == nullptr);
  sites_.push_back(std::move(site));
}

const CallSiteMetadata* MigrationMetadata::find(const std::string& function,
                                                int site_id) const {
  for (const auto& s : sites_) {
    if (s.function == function && s.site_id == site_id) return &s;
  }
  return nullptr;
}

std::uint64_t MigrationMetadata::encoded_size_bytes() const {
  // Encoding model: 32-byte site header, then per live value a 16-byte
  // record for each ISA that has a location entry (type tag, location
  // kind, register id / frame offset).
  std::uint64_t total = 0;
  for (const auto& s : sites_) {
    total += 32;
    for (const auto& v : s.live_values) total += 16 * v.location.size();
  }
  return total;
}

}  // namespace xartrek::popcorn
