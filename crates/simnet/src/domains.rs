//! Correlated failure domains over ring positions.
//!
//! Every failure model elsewhere in the workspace is independent
//! per-node; real deployments fail in correlated groups — a rack loses
//! power, a region partitions, a switch takes its whole pod down. A
//! [`DomainMap`] assigns each ring position a *domain label* so churn
//! schedules and fault plans can address "everything in rack 3" as one
//! unit.
//!
//! The default labeling is **sectoral**: domain `d` of `D` owns the
//! contiguous ring arc `[d·M/D, (d+1)·M/D)`. This matches the
//! clustered-ring placement geometry (a placement cluster lands inside
//! one sector when the cluster count divides the domain count) and —
//! deliberately — makes a domain crash the *worst case* for Chord:
//! a crashed sector is a contiguous dead arc, exactly the shape that
//! defeats an `r`-deep successor list.
//!
//! # Example
//!
//! ```
//! use simnet::DomainMap;
//!
//! let map = DomainMap::sectors(8, 1 << 32);
//! assert_eq!(map.domains(), 8);
//! assert_eq!(map.domain_of(0), 0);
//! assert_eq!(map.domain_of((1u64 << 32) - 1), 7);
//! ```

/// Domain labels over ring positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainMap {
    domains: u32,
    /// Modulus of the ring the equal contiguous sectors divide.
    modulus: u128,
}

impl DomainMap {
    /// `domains` equal contiguous sectors of a ring with `modulus`
    /// points: position `p` belongs to domain `p·domains/modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is zero or `modulus < domains` (a sector must
    /// contain at least one point).
    pub fn sectors(domains: u32, modulus: u128) -> DomainMap {
        assert!(domains > 0, "a domain map needs at least one domain");
        assert!(
            modulus >= u128::from(domains),
            "modulus {modulus} cannot split into {domains} non-empty sectors"
        );
        DomainMap { domains, modulus }
    }

    /// Number of domains.
    pub fn domains(&self) -> u32 {
        self.domains
    }

    /// The domain of ring position `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside the modulus.
    pub fn domain_of(&self, p: u64) -> u32 {
        let modulus = self.modulus;
        assert!(
            u128::from(p) < modulus,
            "point {p} outside modulus {modulus}"
        );
        (u128::from(p) * u128::from(self.domains) / modulus) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sectors_partition_the_ring() {
        let m = 1u128 << 20;
        let map = DomainMap::sectors(8, m);
        // Every point has exactly one in-range label, non-decreasing
        // around the ring.
        let mut last = 0;
        for p in (0..(m as u64)).step_by(1 << 12) {
            let d = map.domain_of(p);
            assert!(d < 8);
            assert!(d >= last, "sector labels must be monotone");
            last = d;
        }
        assert_eq!(map.domain_of(0), 0);
        assert_eq!(map.domain_of((m as u64) - 1), 7);
    }

    #[test]
    fn full_modulus_sectors_label_without_overflow() {
        let map = DomainMap::sectors(4, 1u128 << 64);
        assert_eq!(map.domain_of(0), 0);
        assert_eq!(map.domain_of(u64::MAX), 3);
        assert_eq!(map.domain_of(1u64 << 63), 2);
    }

    #[test]
    #[should_panic(expected = "at least one domain")]
    fn zero_domains_panics() {
        let _ = DomainMap::sectors(0, 100);
    }

    #[test]
    #[should_panic(expected = "outside modulus")]
    fn out_of_range_point_panics() {
        let map = DomainMap::sectors(2, 100);
        let _ = map.domain_of(100);
    }
}
