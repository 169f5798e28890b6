//! Simulation time base.
//!
//! All simulated time in this workspace is expressed in **picoseconds** held
//! in a `u64`. The paper's machine model (§4.2/§4.3) mixes nanosecond-scale
//! latencies (o = 65 ns, L = 250 ns) with picosecond-scale per-byte gaps
//! (G = 20 ps/B), so picoseconds are the coarsest unit that represents every
//! constant exactly. A `u64` of picoseconds covers ~213 days of simulated
//! time, far beyond any experiment here.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// One picosecond (the base unit).
pub const PS: u64 = 1;
/// Picoseconds per nanosecond.
pub const NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const SEC: u64 = 1_000_000_000_000;

/// Bytes per KiB, for experiment parameter sweeps.
pub const KIB: usize = 1024;
/// Bytes per MiB.
pub const MIB: usize = 1024 * 1024;
/// 10^9, handy for rate conversions.
pub const GIGA: u64 = 1_000_000_000;

/// A point in (or duration of) simulated time, in picoseconds.
///
/// `Time` is a transparent newtype so arithmetic stays explicit; durations
/// and instants share the type, as is conventional in discrete-event
/// simulators. Overflow panics in debug builds and is a logic error.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Time(pub u64);

impl Time {
    /// Time zero, the start of every simulation.
    pub const ZERO: Time = Time(0);
    /// The greatest representable time; used as an "infinitely late" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * US)
    }
    /// Construct from a floating-point nanosecond count (rounds to ps).
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        Time((ns * NS as f64).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn ps(self) -> u64 {
        self.0
    }
    /// Value in nanoseconds (lossy).
    #[inline]
    pub fn ns(self) -> f64 {
        self.0 as f64 / NS as f64
    }
    /// Value in microseconds (lossy).
    #[inline]
    pub fn us(self) -> f64 {
        self.0 as f64 / US as f64
    }

    /// Saturating subtraction; useful for "how much later" questions.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        Time(self.0.max(rhs.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, rhs: Time) -> Time {
        Time(self.0.min(rhs.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= US {
            write!(f, "{:.3}us", self.us())
        } else if self.0 >= NS {
            write!(f, "{:.3}ns", self.ns())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}
impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}
impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}
impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}
impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}
impl Rem<u64> for Time {
    type Output = Time;
    #[inline]
    fn rem(self, rhs: u64) -> Time {
        Time(self.0 % rhs)
    }
}
impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        Time(iter.map(|t| t.0).sum())
    }
}

/// A transfer rate used to turn byte counts into durations.
///
/// Stored as picoseconds per byte in fixed point with a 1/1024 sub-picosecond
/// fraction so that rates like 150 GiB/s (≈ 6.2 ps/B) do not accumulate
/// rounding error over multi-megabyte transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BytesPerTime {
    /// Fixed-point picoseconds per byte, scaled by 1024.
    ps_per_byte_x1024: u64,
}

impl BytesPerTime {
    /// From picoseconds-per-byte (e.g. the paper's G parameters).
    pub const fn from_ps_per_byte(ps: u64) -> Self {
        BytesPerTime {
            ps_per_byte_x1024: ps * 1024,
        }
    }

    /// From a floating-point picoseconds-per-byte value.
    pub fn from_ps_per_byte_f64(ps: f64) -> Self {
        BytesPerTime {
            ps_per_byte_x1024: (ps * 1024.0).round() as u64,
        }
    }

    /// From gibibytes per second (e.g. 150 GiB/s host memory of §4.2).
    pub fn from_gib_per_sec(gib: f64) -> Self {
        let bytes_per_sec = gib * (1u64 << 30) as f64;
        let ps_per_byte = SEC as f64 / bytes_per_sec;
        Self::from_ps_per_byte_f64(ps_per_byte)
    }

    /// From gigabits per second (e.g. a 400 Gb/s link).
    pub fn from_gbit_per_sec(gbit: f64) -> Self {
        let bytes_per_sec = gbit * 1e9 / 8.0;
        let ps_per_byte = SEC as f64 / bytes_per_sec;
        Self::from_ps_per_byte_f64(ps_per_byte)
    }

    /// Duration to move `bytes` bytes at this rate.
    #[inline]
    pub fn transfer(self, bytes: usize) -> Time {
        Time((bytes as u64 * self.ps_per_byte_x1024) / 1024)
    }

    /// Picoseconds per byte as a float (for reporting).
    pub fn ps_per_byte(self) -> f64 {
        self.ps_per_byte_x1024 as f64 / 1024.0
    }

    /// Effective bandwidth in GiB/s (for reporting).
    pub fn gib_per_sec(self) -> f64 {
        let ps_per_byte = self.ps_per_byte();
        if ps_per_byte == 0.0 {
            return f64::INFINITY;
        }
        (SEC as f64 / ps_per_byte) / (1u64 << 30) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Time::from_ns(65).ps(), 65_000);
        assert_eq!(Time::from_us(3).ps(), 3_000_000);
        assert_eq!(Time::from_ns_f64(6.7).ps(), 6_700);
        assert_eq!(Time::from_ns(1).ns(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!((a + b).ns(), 14.0);
        assert_eq!((a - b).ns(), 6.0);
        assert_eq!((a * 3).ns(), 30.0);
        assert_eq!((a / 2).ns(), 5.0);
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Time::from_ps(500)), "500ps");
        assert_eq!(format!("{}", Time::from_ns(50)), "50.000ns");
        assert_eq!(format!("{}", Time::from_us(2)), "2.000us");
    }

    #[test]
    fn rate_paper_network_g() {
        // Paper §4.2: 400 Gb/s network => G = 20 ps/B; a 4 KiB packet takes
        // 81.92 ns on the wire.
        let g = BytesPerTime::from_ps_per_byte(20);
        assert_eq!(g.transfer(4096).ps(), 81_920);
        let g2 = BytesPerTime::from_gbit_per_sec(400.0);
        assert_eq!(g2.transfer(4096).ps(), 81_920);
    }

    #[test]
    fn rate_host_memory() {
        // §4.2: 150 GiB/s host memory. Moving 1 MiB should take ~6.51 us.
        let bw = BytesPerTime::from_gib_per_sec(150.0);
        let t = bw.transfer(MIB);
        assert!((t.us() - 6.5104).abs() < 0.01, "got {}", t);
        assert!((bw.gib_per_sec() - 150.0).abs() < 0.5);
    }

    #[test]
    fn rate_no_rounding_drift() {
        // Transferring N bytes one at a time must not drift more than the
        // fixed-point resolution vs. one N-byte transfer.
        let bw = BytesPerTime::from_gib_per_sec(64.0);
        let whole = bw.transfer(1 << 20).ps() as i64;
        let split: i64 = (0..1024).map(|_| bw.transfer(1024).ps() as i64).sum();
        assert!((whole - split).abs() <= 1024, "{whole} vs {split}");
    }

    #[test]
    fn sum_iterator() {
        let total: Time = (1..=4u64).map(Time::from_ns).sum();
        assert_eq!(total, Time::from_ns(10));
    }
}
