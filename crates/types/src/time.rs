//! Time model: paper-level time slots and simulator-level nanoseconds.
//!
//! The admission-control mathematics in the paper operates on integer
//! *slots*: one slot is the time needed to transmit one maximum-sized
//! Ethernet frame (including preamble and inter-frame gap) on the link.  The
//! discrete-event simulator, on the other hand, operates on nanoseconds so
//! that propagation delays, switching latency and frames of different sizes
//! can be modelled faithfully.  [`LinkSpeed`] ties the two together.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use crate::constants::MAX_FRAME_WIRE_BYTES;

/// A number of time slots (paper unit: transmission times of a maximum-sized
/// frame).
///
/// All RT-channel parameters (`P_i`, `C_i`, `d_i`) are expressed in slots.
/// The type is a thin newtype over `u64` with saturating-free checked
/// arithmetic in debug builds (regular `+`/`-` panics on overflow there) and
/// explicit helpers for the few places where saturation is wanted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slots(pub u64);

impl Slots {
    /// Zero slots.
    pub const ZERO: Slots = Slots(0);
    /// One slot.
    pub const ONE: Slots = Slots(1);
    /// The largest representable slot count.
    pub const MAX: Slots = Slots(u64::MAX);

    /// Construct from a raw slot count.
    #[inline]
    pub const fn new(slots: u64) -> Self {
        Slots(slots)
    }

    /// The raw slot count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// `true` if this is zero slots.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Slots) -> Option<Slots> {
        self.0.checked_add(rhs.0).map(Slots)
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: Slots) -> Option<Slots> {
        self.0.checked_sub(rhs.0).map(Slots)
    }

    /// Checked multiplication by a scalar.
    #[inline]
    pub fn checked_mul(self, rhs: u64) -> Option<Slots> {
        self.0.checked_mul(rhs).map(Slots)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Slots) -> Slots {
        Slots(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (floors at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: Slots) -> Slots {
        Slots(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication by a scalar.
    #[inline]
    pub fn saturating_mul(self, rhs: u64) -> Slots {
        Slots(self.0.saturating_mul(rhs))
    }

    /// Integer division, rounding down.
    #[inline]
    pub fn div_floor(self, rhs: Slots) -> u64 {
        debug_assert!(rhs.0 != 0, "division by zero slots");
        self.0 / rhs.0
    }

    /// Integer division, rounding up.
    #[inline]
    pub fn div_ceil(self, rhs: Slots) -> u64 {
        debug_assert!(rhs.0 != 0, "division by zero slots");
        self.0.div_ceil(rhs.0)
    }

    /// The smaller of two slot counts.
    #[inline]
    pub fn min(self, other: Slots) -> Slots {
        Slots(self.0.min(other.0))
    }

    /// The larger of two slot counts.
    #[inline]
    pub fn max(self, other: Slots) -> Slots {
        Slots(self.0.max(other.0))
    }

    /// Least common multiple of two slot counts, `None` on overflow.
    pub fn checked_lcm(self, other: Slots) -> Option<Slots> {
        if self.0 == 0 || other.0 == 0 {
            return Some(Slots::ZERO);
        }
        let g = gcd(self.0, other.0);
        (self.0 / g).checked_mul(other.0).map(Slots)
    }
}

/// Greatest common divisor (Euclid).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl fmt::Display for Slots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} slot(s)", self.0)
    }
}

impl From<u64> for Slots {
    fn from(v: u64) -> Self {
        Slots(v)
    }
}

impl From<u32> for Slots {
    fn from(v: u32) -> Self {
        Slots(v as u64)
    }
}

impl Add for Slots {
    type Output = Slots;
    #[inline]
    fn add(self, rhs: Slots) -> Slots {
        Slots(self.0 + rhs.0)
    }
}

impl AddAssign for Slots {
    #[inline]
    fn add_assign(&mut self, rhs: Slots) {
        self.0 += rhs.0;
    }
}

impl Sub for Slots {
    type Output = Slots;
    #[inline]
    fn sub(self, rhs: Slots) -> Slots {
        Slots(self.0 - rhs.0)
    }
}

impl SubAssign for Slots {
    #[inline]
    fn sub_assign(&mut self, rhs: Slots) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Slots {
    type Output = Slots;
    #[inline]
    fn mul(self, rhs: u64) -> Slots {
        Slots(self.0 * rhs)
    }
}

impl Div<u64> for Slots {
    type Output = Slots;
    #[inline]
    fn div(self, rhs: u64) -> Slots {
        Slots(self.0 / rhs)
    }
}

impl Rem<Slots> for Slots {
    type Output = Slots;
    #[inline]
    fn rem(self, rhs: Slots) -> Slots {
        Slots(self.0 % rhs.0)
    }
}

impl Sum for Slots {
    fn sum<I: Iterator<Item = Slots>>(iter: I) -> Slots {
        iter.fold(Slots::ZERO, |acc, s| acc + s)
    }
}

/// A point in simulated time, in nanoseconds since the start of the
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as an "infinite" deadline sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (rounded down).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`; saturates at zero if `earlier` is
    /// actually later.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in this duration (rounded down).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiplication by a scalar.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_nanos(self.0, f)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_nanos(self.0, f)
    }
}

fn format_nanos(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc + d)
    }
}

/// A link bit-rate, used to convert between bytes/slots and wall-clock time.
///
/// The paper assumes Fast Ethernet (100 Mbit/s); the simulator supports any
/// rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpeed {
    bits_per_second: u64,
}

impl LinkSpeed {
    /// 10 Mbit/s classic Ethernet.
    pub const ETHERNET_10M: LinkSpeed = LinkSpeed::from_mbps(10);
    /// 100 Mbit/s Fast Ethernet (the paper's assumption).
    pub const FAST_ETHERNET: LinkSpeed = LinkSpeed::from_mbps(100);
    /// 1 Gbit/s Gigabit Ethernet.
    pub const GIGABIT: LinkSpeed = LinkSpeed::from_mbps(1000);

    /// Construct from megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        LinkSpeed {
            bits_per_second: mbps * 1_000_000,
        }
    }

    /// The raw rate in bits per second.
    pub const fn bits_per_second(self) -> u64 {
        self.bits_per_second
    }

    /// The rate in megabits per second (rounded down).
    pub const fn mbps(self) -> u64 {
        self.bits_per_second / 1_000_000
    }

    /// Time to transmit `bytes` bytes at this rate (rounded up to whole
    /// nanoseconds).
    pub fn transmission_time(self, bytes: usize) -> Duration {
        let bits = bytes as u64 * 8;
        // ns = bits * 1e9 / rate, rounded up so we never under-estimate.
        // In `u64` whenever `bits · 1e9` fits (any frame under 2.3 GB).
        let ns = match bits.checked_mul(1_000_000_000) {
            Some(scaled) => scaled.div_ceil(self.bits_per_second),
            None => {
                (bits as u128 * 1_000_000_000u128).div_ceil(self.bits_per_second as u128) as u64
            }
        };
        Duration(ns)
    }

    /// Length of one paper time slot: the wire time of a maximum-sized frame
    /// (1518 B MAC frame + preamble/SFD + inter-frame gap).
    pub fn slot_duration(self) -> Duration {
        self.transmission_time(MAX_FRAME_WIRE_BYTES)
    }

    /// Convert a slot count into simulated time.
    pub fn slots_to_duration(self, slots: Slots) -> Duration {
        self.slot_duration().saturating_mul(slots.get())
    }
}

impl Default for LinkSpeed {
    fn default() -> Self {
        LinkSpeed::FAST_ETHERNET
    }
}

impl fmt::Display for LinkSpeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Mbit/s", self.mbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_basic_arithmetic() {
        let a = Slots::new(10);
        let b = Slots::new(3);
        assert_eq!(a + b, Slots::new(13));
        assert_eq!(a - b, Slots::new(7));
        assert_eq!(a * 2, Slots::new(20));
        assert_eq!(a / 3, Slots::new(3));
        assert_eq!(a % b, Slots::new(1));
        assert_eq!(a.div_floor(b), 3);
        assert_eq!(a.div_ceil(b), 4);
    }

    #[test]
    fn slots_checked_and_saturating() {
        assert_eq!(Slots::MAX.checked_add(Slots::ONE), None);
        assert_eq!(Slots::MAX.saturating_add(Slots::ONE), Slots::MAX);
        assert_eq!(Slots::ZERO.checked_sub(Slots::ONE), None);
        assert_eq!(Slots::ZERO.saturating_sub(Slots::ONE), Slots::ZERO);
        assert_eq!(Slots::new(5).checked_mul(3), Some(Slots::new(15)));
        assert_eq!(Slots::MAX.checked_mul(2), None);
    }

    #[test]
    fn slots_lcm_and_gcd() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(
            Slots::new(4).checked_lcm(Slots::new(6)),
            Some(Slots::new(12))
        );
        assert_eq!(
            Slots::new(100).checked_lcm(Slots::new(40)),
            Some(Slots::new(200))
        );
        assert_eq!(Slots::new(0).checked_lcm(Slots::new(7)), Some(Slots::ZERO));
        assert_eq!(Slots::MAX.checked_lcm(Slots::new(u64::MAX - 1)), None);
    }

    #[test]
    fn slots_ordering_and_sum() {
        let v = [Slots::new(1), Slots::new(2), Slots::new(3)];
        let total: Slots = v.iter().copied().sum();
        assert_eq!(total, Slots::new(6));
        assert!(Slots::new(2) < Slots::new(3));
        assert_eq!(Slots::new(2).max(Slots::new(3)), Slots::new(3));
        assert_eq!(Slots::new(2).min(Slots::new(3)), Slots::new(2));
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_micros(5);
        let d = Duration::from_micros(3);
        assert_eq!((t + d).as_nanos(), 8_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_duration_since(t + d), Duration::ZERO);
        assert_eq!((t + d).saturating_duration_since(t), d);
        assert_eq!(SimTime::from_millis(1).as_micros(), 1_000);
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(format!("{}", Duration::from_nanos(500)), "500ns");
        assert_eq!(format!("{}", Duration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", Duration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Duration::from_secs(4)), "4.000s");
    }

    #[test]
    fn link_speed_transmission_times() {
        // 1538 wire bytes at 100 Mbit/s = 123.04 us.
        let slot = LinkSpeed::FAST_ETHERNET.slot_duration();
        assert_eq!(slot.as_nanos(), 123_040);
        // Minimum frame: 64 B + 8 preamble + 12 IFG = 84 B -> 6.72 us.
        let min = LinkSpeed::FAST_ETHERNET.transmission_time(84);
        assert_eq!(min.as_nanos(), 6_720);
        // Gigabit is 10x faster.
        assert_eq!(LinkSpeed::GIGABIT.slot_duration().as_nanos(), 12_304);
    }

    /// The `u64` path of `transmission_time` against the `u128` formula, for
    /// every byte count of an IPv4 datagram and rates across the
    /// constructors' range: the named speeds, `from_mbps` up to its largest
    /// rate, raw rates down to 1 bit/s and up to `u64::MAX`; then the last
    /// byte count whose `bits · 1e9` fits a `u64`, the first that does not,
    /// and two far past it, which take the `u128` path.
    #[test]
    fn prop_transmission_time_in_u64_matches_u128() {
        let wide = |speed: LinkSpeed, bytes: usize| {
            let bits = bytes as u128 * 8;
            (bits * 1_000_000_000).div_ceil(u128::from(speed.bits_per_second())) as u64
        };
        let mut rng = crate::rng::Xoshiro256::new(0x7a5e);
        let mut speeds = vec![
            LinkSpeed::ETHERNET_10M,
            LinkSpeed::FAST_ETHERNET,
            LinkSpeed::GIGABIT,
            LinkSpeed::from_mbps(u64::MAX / 1_000_000),
            LinkSpeed { bits_per_second: 1 },
            LinkSpeed { bits_per_second: 3 },
            LinkSpeed {
                bits_per_second: u64::MAX,
            },
        ];
        for _ in 0..9 {
            speeds.push(LinkSpeed::from_mbps(
                rng.range_inclusive(1, u64::MAX / 1_000_000),
            ));
            speeds.push(LinkSpeed {
                bits_per_second: rng.range_inclusive(1, u64::MAX),
            });
            speeds.push(LinkSpeed::from_mbps(rng.range_inclusive(1, 100_000)));
        }
        for speed in speeds {
            for bytes in 0..=65_535 {
                assert_eq!(
                    speed.transmission_time(bytes).as_nanos(),
                    wide(speed, bytes),
                    "{bytes} bytes at {} bit/s",
                    speed.bits_per_second()
                );
            }
            for bytes in [2_305_843_009, 2_305_843_010, 1 << 40, usize::MAX / 8] {
                assert_eq!(
                    speed.transmission_time(bytes).as_nanos(),
                    wide(speed, bytes)
                );
            }
        }
    }
}
