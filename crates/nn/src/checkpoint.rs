//! Model checkpointing: a small, versioned, dependency-free binary format
//! for parameter snapshots plus auxiliary buffers (batch-norm running
//! statistics, optimizer moments, trainer counters).
//!
//! Layout (little-endian):
//!
//! ```text
//! magic  "CC19CKPT"            8 bytes
//! version u32                  = 2 (1 still readable)
//! n_sections u32
//! per section:
//!   name_len u32, name bytes (utf-8)
//!   data_len u32 (f32 count), data bytes (4 * data_len)
//! crc32 u32                    (v2 only: IEEE CRC-32 of everything after
//!                               the version word)
//! ```
//!
//! Version history:
//!
//! - **v1** — sections only, no integrity check.
//! - **v2** — identical section encoding plus a trailing CRC-32 so a
//!   truncated or bit-flipped file is rejected instead of silently loading
//!   garbage weights. v1 files remain loadable (no checksum verified).
//!
//! This file is on the cc19-lint panic-surface path: checkpoint I/O
//! failures must surface as `io::Result`, never panics.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::layers::BatchNorm;
use crate::param::ParamStore;

const MAGIC: &[u8; 8] = b"CC19CKPT";
const VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — shared by the checkpoint
// format and the distributed transport's payload framing.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// Incremental CRC-32 (IEEE) accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// Finalized checksum.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// A named collection of f32 buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// `(name, data)` sections, in order.
    pub sections: Vec<(String, Vec<f32>)>,
}

impl Checkpoint {
    /// New empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section.
    pub fn push(&mut self, name: impl Into<String>, data: Vec<f32>) {
        self.sections.push((name.into(), data));
    }

    /// Append a single-value section.
    pub fn push_scalar(&mut self, name: impl Into<String>, value: f32) {
        self.push(name, vec![value]);
    }

    /// Append a `u64` counter section, bit-cast into two f32 lanes so the
    /// round trip is exact (a plain `as f32` would lose precision past
    /// 2^24 steps).
    pub fn push_u64(&mut self, name: impl Into<String>, value: u64) {
        let lo = f32::from_bits((value & 0xFFFF_FFFF) as u32);
        let hi = f32::from_bits((value >> 32) as u32);
        self.push(name, vec![lo, hi]);
    }

    /// Find a section by name.
    pub fn get(&self, name: &str) -> Option<&[f32]> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, d)| d.as_slice())
    }

    /// Read back a single-value section.
    pub fn get_scalar(&self, name: &str) -> Option<f32> {
        match self.get(name) {
            Some([v]) => Some(*v),
            _ => None,
        }
    }

    /// Read back a counter stored with [`Checkpoint::push_u64`].
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some([lo, hi]) => Some((lo.to_bits() as u64) | ((hi.to_bits() as u64) << 32)),
            _ => None,
        }
    }

    /// Encode the section region (count + sections) — the byte span the
    /// v2 checksum covers.
    fn encode_body(&self) -> Vec<u8> {
        let total: usize = self
            .sections
            .iter()
            .map(|(n, d)| 8 + n.len() + 4 * d.len())
            .sum();
        let mut body = Vec::with_capacity(4 + total);
        body.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, data) in &self.sections {
            let nb = name.as_bytes();
            body.extend_from_slice(&(nb.len() as u32).to_le_bytes());
            body.extend_from_slice(nb);
            body.extend_from_slice(&(data.len() as u32).to_le_bytes());
            for v in data {
                body.extend_from_slice(&v.to_le_bytes());
            }
        }
        body
    }

    /// Serialize to a writer (current version, with checksum).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        let body = self.encode_body();
        w.write_all(&body)?;
        w.write_all(&crc32(&body).to_le_bytes())?;
        Ok(())
    }

    /// Serialize in the legacy v1 layout (no checksum). Exists so tests
    /// and migration tooling can produce old-format files.
    pub fn write_to_v1(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&1u32.to_le_bytes())?;
        w.write_all(&self.encode_body())?;
        Ok(())
    }

    /// Deserialize from a reader. Accepts v1 (no checksum) and v2
    /// (trailing CRC-32, verified).
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a CC19 checkpoint"));
        }
        let mut u32buf = [0u8; 4];
        r.read_exact(&mut u32buf)?;
        let version = u32::from_le_bytes(u32buf);
        if version == 0 || version > VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported checkpoint version {version}"),
            ));
        }
        let mut crc = Crc32::new();
        let read_u32 = |r: &mut dyn Read, crc: &mut Crc32| -> io::Result<u32> {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)?;
            crc.update(&b);
            Ok(u32::from_le_bytes(b))
        };
        let n = read_u32(r, &mut crc)? as usize;
        // sanity cap: 1e6 sections
        if n > 1_000_000 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "corrupt section count"));
        }
        let mut sections = Vec::with_capacity(n);
        for _ in 0..n {
            let name_len = read_u32(r, &mut crc)? as usize;
            if name_len > 4096 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "corrupt name length"));
            }
            let mut name = vec![0u8; name_len];
            r.read_exact(&mut name)?;
            crc.update(&name);
            let name = String::from_utf8(name)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 section name"))?;
            let len = read_u32(r, &mut crc)? as usize;
            if len > (1usize << 30) {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "corrupt data length"));
            }
            let mut bytes = vec![0u8; len * 4];
            r.read_exact(&mut bytes)?;
            crc.update(&bytes);
            let data: Vec<f32> =
                bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
            sections.push((name, data));
        }
        if version >= 2 {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)?;
            let stored = u32::from_le_bytes(b);
            let computed = crc.finish();
            if stored != computed {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"),
                ));
            }
        }
        Ok(Checkpoint { sections })
    }

    /// Save to a file. Writes to a temporary sibling first and renames, so
    /// a crash mid-write never leaves a truncated checkpoint at `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            self.write_to(&mut w)?;
            w.flush()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Load from a file.
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        Self::read_from(&mut r)
    }

    /// A network's state as sections `{prefix}.config` (its configuration
    /// fingerprint), `{prefix}.params` (the flat parameter snapshot) and
    /// `{prefix}.bn{i}.mean` / `.var` (each batch-norm layer's running
    /// statistics, in `bns` order).
    pub fn of_network(prefix: &str, config: Vec<f32>, store: &ParamStore, bns: &[&BatchNorm]) -> Self {
        let mut ck = Checkpoint::new();
        ck.push(format!("{prefix}.config"), config);
        ck.push(format!("{prefix}.params"), store.snapshot());
        for (i, bn) in bns.iter().enumerate() {
            ck.push(format!("{prefix}.bn{i}.mean"), bn.running_mean());
            ck.push(format!("{prefix}.bn{i}.var"), bn.running_var());
        }
        ck
    }

    /// Restore state written by [`Checkpoint::of_network`] into a
    /// structurally identical network. Every section is checked first —
    /// present, and as long as the network's parameters / channels — and
    /// only then is anything written, so a rejected checkpoint leaves the
    /// network exactly as it was.
    pub fn load_network(&self, prefix: &str, config: &[f32], store: &ParamStore, bns: &[&BatchNorm]) -> io::Result<()> {
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        let section = |name: String| self.get(&name).ok_or_else(|| bad(format!("missing section {name}")));
        if section(format!("{prefix}.config"))? != config {
            return Err(bad(format!("checkpoint was saved from a different {prefix} configuration")));
        }
        let params = section(format!("{prefix}.params"))?;
        if params.len() != store.num_scalars() {
            return Err(bad(format!("{prefix}.params holds {} values, the network {}", params.len(), store.num_scalars())));
        }
        let mut stats = Vec::with_capacity(bns.len());
        for (i, bn) in bns.iter().enumerate() {
            let mean = section(format!("{prefix}.bn{i}.mean"))?;
            let var = section(format!("{prefix}.bn{i}.var"))?;
            let c = bn.channels();
            if mean.len() != c || var.len() != c {
                return Err(bad(format!(
                    "{prefix}.bn{i} statistics hold {}/{} values, the layer has {c} channels",
                    mean.len(),
                    var.len()
                )));
            }
            stats.push((mean, var));
        }
        store.load_snapshot(params).map_err(|e| bad(format!("parameter mismatch: {e}")))?;
        for (bn, (mean, var)) in bns.iter().zip(stats) {
            bn.set_running_stats(mean.to_vec(), var.to_vec());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cc19_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip() {
        let mut c = Checkpoint::new();
        c.push("params", vec![1.0, -2.5, 3.25]);
        c.push("bn.mean", vec![0.5]);
        c.push("bn.var", vec![]);
        let path = tmp("roundtrip.ckpt");
        c.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, c);
        assert_eq!(loaded.get("params").unwrap(), &[1.0, -2.5, 3.25]);
        assert!(loaded.get("missing").is_none());
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("garbage.ckpt");
        std::fs::write(&path, b"NOTACKPTxxxxxx").unwrap();
        assert!(Checkpoint::load(&path).is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let mut c = Checkpoint::new();
        c.push("w", vec![1.0; 64]);
        let path = tmp("trunc.ckpt");
        c.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(Checkpoint::load(&path).is_err());
    }

    #[test]
    fn rejects_bitflip() {
        let mut c = Checkpoint::new();
        c.push("w", vec![0.25; 64]);
        let path = tmp("bitflip.ckpt");
        c.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn reads_legacy_v1_files() {
        let mut c = Checkpoint::new();
        c.push("w", vec![1.5, -2.0]);
        c.push("b", vec![0.0]);
        let path = tmp("legacy_v1.ckpt");
        let mut w = BufWriter::new(File::create(&path).unwrap());
        c.write_to_v1(&mut w).unwrap();
        w.flush().unwrap();
        drop(w);
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, c);
    }

    #[test]
    fn preserves_section_order_and_duplicates() {
        let mut c = Checkpoint::new();
        c.push("a", vec![1.0]);
        c.push("a", vec![2.0]);
        let path = tmp("dup.ckpt");
        c.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.sections.len(), 2);
        assert_eq!(loaded.sections[0].1, vec![1.0]);
        assert_eq!(loaded.sections[1].1, vec![2.0]);
        // get() returns the first
        assert_eq!(loaded.get("a").unwrap(), &[1.0]);
    }

    #[test]
    fn u64_roundtrip_is_exact() {
        let mut c = Checkpoint::new();
        for (i, v) in [0u64, 1, (1 << 24) + 1, u64::MAX - 7].iter().enumerate() {
            c.push_u64(format!("t{i}"), *v);
        }
        c.push_scalar("lr", 3.25e-4);
        let path = tmp("u64.ckpt");
        c.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.get_u64("t0"), Some(0));
        assert_eq!(loaded.get_u64("t1"), Some(1));
        assert_eq!(loaded.get_u64("t2"), Some((1 << 24) + 1));
        assert_eq!(loaded.get_u64("t3"), Some(u64::MAX - 7));
        assert_eq!(loaded.get_scalar("lr"), Some(3.25e-4));
        assert_eq!(loaded.get_scalar("missing"), None);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
