//! Declared wire sizes: the one owner of "how many bytes does one element
//! cost on the modelled network".
//!
//! Every byte the engine charges — collective payloads, checkpoint
//! footprints, the memory traffic of compute phases over octant buffers —
//! is `count × T::BYTES`. The value is a declaration, not the host layout:
//! a struct can be repacked (`SfcKey` declares 32 bytes and occupies 16)
//! without moving a virtual clock, a trace byte or an energy figure.
//! Changing a declared value is a modelling decision that re-pins every
//! clock.

use optipart_sfc::{KeyedCell, SfcKey};

/// An element type that crosses a collective, with its declared size.
pub trait Wire {
    /// Bytes one element costs on the modelled wire.
    const BYTES: u64;
}

macro_rules! wire {
    ($($t:ty = $bytes:expr),*) => {
        $(impl Wire for $t {
            const BYTES: u64 = $bytes;
        })*
    };
}

wire!(u8 = 1, u32 = 4, u64 = 8, f64 = 8);

/// A curve position: a 90-bit path and a level, modelled as a padded
/// 32-byte `(u128, u8)` pair.
impl Wire for SfcKey {
    const BYTES: u64 = 32;
}

/// An octant (or quadrant) with its key: a 32-byte key plus a 16-byte
/// cell, modelled alike for D = 2 and 3.
impl<const D: usize> Wire for KeyedCell<D> {
    const BYTES: u64 = 48;
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_sfc::Cell;

    #[test]
    fn host_layout_is_packed_but_declared_sizes_stand() {
        assert_eq!(std::mem::size_of::<SfcKey>(), 16);
        assert_eq!(std::mem::size_of::<KeyedCell<2>>(), 32);
        assert_eq!(std::mem::size_of::<KeyedCell<3>>(), 32);
        assert_eq!(std::mem::size_of::<Cell<3>>(), 16);
        assert_eq!(<SfcKey as Wire>::BYTES, 32);
        assert_eq!(<KeyedCell<2> as Wire>::BYTES, 48);
        assert_eq!(<KeyedCell<3> as Wire>::BYTES, 48);
    }
}
