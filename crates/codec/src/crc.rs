//! CRC-64/XZ — the single content checksum used by every byte format in
//! the workspace.
//!
//! The engine's cache entries and journal frames, the contract pins,
//! and the linter's artifact re-verification all stamp and check
//! this exact function, so a checksum mismatch means the *content*
//! drifted, never the checksum implementation.

/// The reflected ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table,
/// and `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold in with eight independent
/// lookups.
const TABLES: [[u64; 256]; 8] = build_tables();

const fn build_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-64/XZ (reflected ECMA polynomial) over `bytes`. The check value
/// for `b"123456789"` is `0x995dc9bbdf1939fa`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut lane = [0u8; 8];
        lane.copy_from_slice(word);
        let x = crc ^ u64::from_le_bytes(lane);
        crc = TABLES[7][(x & 0xff) as usize]
            ^ TABLES[6][((x >> 8) & 0xff) as usize]
            ^ TABLES[5][((x >> 16) & 0xff) as usize]
            ^ TABLES[4][((x >> 24) & 0xff) as usize]
            ^ TABLES[3][((x >> 32) & 0xff) as usize]
            ^ TABLES[2][((x >> 40) & 0xff) as usize]
            ^ TABLES[1][((x >> 48) & 0xff) as usize]
            ^ TABLES[0][(x >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ u64::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition the tables are derived from, kept as
    /// the oracle for the sliced implementation.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc ^= u64::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc64_matches_the_xz_check_value() {
        assert_eq!(crc64(b"123456789"), 0x995d_c9bb_df19_39fa);
        assert_eq!(crc64(b""), 0);
        assert_ne!(crc64(b"a"), crc64(b"b"));
    }

    #[test]
    fn sliced_crc64_equals_the_bitwise_oracle_at_every_length() {
        // Every length 0..=40 covers each remainder (0..8) after zero to
        // five whole 8-byte words; several random fills per length.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..=40 {
            for _ in 0..16 {
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                assert_eq!(crc64(&data), crc64_bitwise(&data), "len {len}: {data:?}");
            }
        }
    }

    #[test]
    fn crc64_detects_any_single_bit_flip() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc64(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc64(&flipped), clean, "bit {bit} undetected");
        }
    }
}
