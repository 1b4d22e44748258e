//! CRC-32 (IEEE 802.3 polynomial), table-driven, zero dependencies.
//!
//! Every WAL frame and snapshot body carries a CRC so recovery can tell
//! a torn write (truncated tail) or bit rot from valid data. The IEEE
//! polynomial is the same one zlib/gzip use, so checksums can be
//! cross-checked with standard tools while debugging.
//!
//! The checksum is computed slicing-by-8: eight 256-entry tables fold
//! eight input bytes per step with eight independent lookups, in place
//! of one dependent lookup per byte. `TABLES[0]` is the classic bytewise
//! table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
//! bytes, so the eight lookups of one step combine by xor.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor, reflected — the
/// standard "crc32" everyone means).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook one-byte-at-a-time loop over the first table: the
    /// reference the sliced loop must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_reference() {
        // Deterministic pseudo-random bytes (xorshift), so every
        // alignment and tail length meets non-trivial data.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        };
        let buf: Vec<u8> = (0..72).map(|_| next()).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        for len in [100, 1000, 4099, 65_537] {
            let big: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(crc32(&big), crc32_bytewise(&big), "random buffer of {len}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"courserank wal frame payload".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
