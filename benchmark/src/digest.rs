//! Committed expectations for the default seed.
//!
//! `expected/<workload>.seed11.digest` pins the *oracle*: a hash of the
//! sequential reference's full output vector, its length, and the quality
//! it scores against the planted labels. A normal run recomputes the
//! oracle, compares every timed output to it element by element, and at the
//! default seed also compares the oracle to this file — so a change that
//! breaks the fast path and the reference in the same way still fails.
//! Only `--write-expected` writes these files.

use std::path::PathBuf;

/// The seed the committed expectations were generated with.
pub const DEFAULT_SEED: u64 = 11;

/// FNV-1a, 64 bit, over each value as eight little-endian bytes.
pub fn fnv1a64(values: &[usize]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in values {
        for byte in (v as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// What the oracle produced: the pinned facts about one workload's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub digest: u64,
    pub outputs: usize,
    pub quality: f64,
}

impl Expected {
    pub fn of(outputs: &[usize], quality: f64) -> Self {
        Expected {
            digest: fnv1a64(outputs),
            outputs: outputs.len(),
            quality,
        }
    }

    fn render(&self) -> String {
        // `{:?}` prints the shortest decimal that parses back to the same
        // f64, so the quality comparison is exact.
        format!(
            "fnv1a64={:016x} outputs={} quality={:?}\n",
            self.digest, self.outputs, self.quality
        )
    }

    fn parse(text: &str) -> Option<Self> {
        let mut digest = None;
        let mut outputs = None;
        let mut quality = None;
        for field in text.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            match key {
                "fnv1a64" => digest = u64::from_str_radix(value, 16).ok(),
                "outputs" => outputs = value.parse().ok(),
                "quality" => quality = value.parse().ok(),
                _ => return None,
            }
        }
        Some(Expected {
            digest: digest?,
            outputs: outputs?,
            quality: quality?,
        })
    }
}

/// Relative to the working directory, which is the repository root for the
/// benchmark command and for `run.sh`.
fn path(workload: &str) -> PathBuf {
    PathBuf::from(format!(
        "benchmark/expected/{workload}.seed{DEFAULT_SEED}.digest"
    ))
}

pub fn write(workload: &str, expected: &Expected) -> std::io::Result<PathBuf> {
    let path = path(workload);
    std::fs::write(&path, expected.render())?;
    Ok(path)
}

/// Compare the oracle's facts with the committed file. `Ok` for any seed
/// but the default one, which has no committed expectation.
pub fn check_committed(workload: &str, seed: u64, oracle: &Expected) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let path = path(workload);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let committed =
        Expected::parse(&text).ok_or_else(|| format!("{} is malformed", path.display()))?;
    if &committed == oracle {
        Ok(())
    } else {
        Err(format!(
            "oracle disagrees with {}: committed {committed:?}, computed {oracle:?}",
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_vectors() {
        // Offset basis for no input; one zero word is eight zero bytes.
        assert_eq!(fnv1a64(&[]), 0xcbf2_9ce4_8422_2325);
        let mut eight_zero_bytes: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            eight_zero_bytes = eight_zero_bytes.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(fnv1a64(&[0]), eight_zero_bytes);
        assert_ne!(fnv1a64(&[1, 2]), fnv1a64(&[2, 1]), "order matters");
        assert_ne!(fnv1a64(&[1]), fnv1a64(&[1, 0]), "length matters");
    }

    #[test]
    fn expected_file_round_trips_exactly() {
        let e = Expected::of(&[3, 1, 4, 1, 5], 0.992_307_692_307_692_3);
        assert_eq!(Expected::parse(&e.render()), Some(e));
        assert_eq!(Expected::parse("fnv1a64=zz outputs=1 quality=1"), None);
        assert_eq!(Expected::parse("outputs=1 quality=1"), None);
    }
}
