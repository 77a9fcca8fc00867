// Synthetic sky-catalog generator: the stand-in for the SDSS fact table
// (docs/ARCHITECTURE.md module map, `src/workload`). Objects are a mixture
// of an isotropic background and Gaussian clusters, giving the spatially
// non-uniform density a real survey has (which in turn makes equal-count
// buckets cover unequal sky areas, exactly the regime HTM partitioning
// exists for).

#ifndef LIFERAFT_WORKLOAD_CATALOG_GEN_H_
#define LIFERAFT_WORKLOAD_CATALOG_GEN_H_

#include <cstdint>
#include <vector>

#include "geom/spherical.h"
#include "storage/object.h"
#include "util/random.h"
#include "util/status.h"

namespace liferaft::workload {

/// Catalog generator configuration.
struct CatalogGenConfig {
  size_t num_objects = 100'000;
  /// Fraction of objects drawn from clusters rather than the isotropic
  /// background.
  double cluster_fraction = 0.4;
  size_t num_clusters = 32;
  /// Cluster angular scale (Gaussian sigma, degrees).
  double cluster_sigma_deg = 2.0;
  /// Magnitudes are uniform in [mag_min, mag_max]; colors normal(0.6,0.4).
  float mag_min = 14.0f;
  float mag_max = 24.0f;
  uint64_t seed = 7;
};

/// Generates the catalog. Object ids are 0..n-1 assigned in HTM-curve
/// order (clustered-index layout), so each equal-count bucket covers a
/// contiguous id run — the columnar page format's sequential object-id
/// encoding depends on this.
Result<std::vector<storage::CatalogObject>> GenerateCatalog(
    const CatalogGenConfig& config);

/// Uniformly samples a point on the unit sphere (area-uniform).
SkyPoint RandomSkyPoint(Rng* rng);

/// Samples a point uniformly within `radius_deg` of `center` (area-uniform
/// within the cap).
SkyPoint RandomPointInCap(Rng* rng, const SkyPoint& center,
                          double radius_deg);

}  // namespace liferaft::workload

#endif  // LIFERAFT_WORKLOAD_CATALOG_GEN_H_
