//! Versioned binary snapshot codec for engine checkpoint/restore.
//!
//! The open-loop service mode (`repro weather`) periodically serializes the
//! full dynamic state of a simulation — wheel, arena, links, hosts, RNG —
//! so a 24-hour run can be killed at an arbitrary checkpoint and resumed
//! with *byte-identical* output. This module is the only place that knows
//! the byte format: little-endian fixed-width integers, `f64` as IEEE-754
//! bits, one strict tag byte for `bool`/`Option`/enums, and `u64` length
//! prefixes that [`SnapReader::seq_len`] bounds by the bytes remaining
//! before anything is allocated. Every checkpointed type implements
//! [`Snap`], almost always through one of the field-list macros, so a field
//! cannot be written but not read:
//!
//! * [`snap_struct!`](crate::snap_struct) — `T { a, b; scratch }`: the
//!   fields before `;` travel in that order, the ones after it come back
//!   as `Default`.
//! * [`snap_enum!`](crate::snap_enum) — fieldless enums, one explicit tag
//!   byte per variant.
//! * [`snap_via!`](crate::snap_via) — newtypes, and types that travel as
//!   another type.
//! * [`snap_fields!`](crate::snap_fields) — the in-place form, for state
//!   overlaid onto a value that was rebuilt from configuration (strategies,
//!   hosts, the engine scalars): a save/load method pair over one list.
//!
//! Explicit section magics stay between the big sections so a reader that
//! drifts out of phase with its writer fails loudly at the next section
//! boundary instead of silently misreading state.
//!
//! Versioning rules (see DESIGN.md "Open-loop service mode"):
//!
//! * A sealed file ([`SnapWriter::sealed_file`] or [`SnapWriter::sealed`] /
//!   [`SnapReader::open`]) is `(magic, version, total length)`, the body,
//!   and a 64-bit FNV-1a of the body. The file form streams: it holds one
//!   [`STREAM_BUF`] buffer, hashes as it writes, and seeks back for the
//!   length at the end. A reader refuses any version it does not know —
//!   snapshots are *not* forward-compatible — reports a short file as
//!   truncated, and verifies the length and checksum before decoding
//!   anything.
//! * Any change to the byte layout of any section bumps
//!   [`SNAP_VERSION`]. There is no per-section versioning: snapshots are
//!   short-lived artifacts of one binary, not an archival format.
//! * Restoring validates the topology-independent scalars it can check
//!   (link counts, payload tags) and panics/errors on mismatch rather
//!   than limping on.

use crate::node::TimerId;
use crate::packet::{FlowId, LinkId, NodeId, PacketId};
use crate::rng::{fnv1a64, fnv1a64_extend, FNV1A64_EMPTY};
use crate::time::{Rate, SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::io::{self, Seek, SeekFrom, Write};

/// Snapshot format version. Bump on ANY layout change. Version 6: every
/// packet's fate is decided when its serialization starts, so links carry
/// no silent flag and the event queue has no entry kind that decides a
/// fate at the end of a transmission (version 5's tag 0); version 5 added
/// the engine's `(at, seq)` position, each link's end of its last
/// transmission and the `LinkFree` entry kind.
pub const SNAP_VERSION: u32 = 6;

/// File-level magic: "HBSN" (Halfback SNapshot).
pub const SNAP_MAGIC: u32 = 0x4842_534E;

/// Bytes a sealed file spends on `(magic, version, total length)`.
const SEAL_HEADER: usize = 16;
/// Bytes of the sealed file's checksum trailer.
const SEAL_TRAILER: usize = 8;

/// Decode-side failure: truncated input, wrong magic, unknown tag, or a
/// snapshot that does not match the rebuilt topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Input ended before the expected field (or a length prefix promised
    /// more elements than there are bytes left).
    Eof {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// How many bytes the field needed.
        wanted: usize,
    },
    /// A section or file magic did not match.
    Magic {
        /// The magic the reader expected.
        expected: u32,
        /// The magic actually read.
        got: u32,
    },
    /// A tag byte (enum variant, `bool`, `Option`) was out of range for
    /// the type named.
    Tag {
        /// Type being decoded.
        ty: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// The snapshot's format version is not supported by this binary.
    Version {
        /// Version found in the header.
        got: u32,
        /// The one version this binary reads.
        supported: u32,
    },
    /// A sealed file's body does not hash to its trailer: the file was
    /// damaged after it was written.
    Checksum {
        /// The checksum stored in the trailer.
        expected: u64,
        /// The checksum of the bytes actually present.
        got: u64,
    },
    /// A sealed file is longer than its header declares: the length slot
    /// was damaged after the file was written.
    Length {
        /// The total length the header declares.
        declared: u64,
        /// The file's actual length.
        actual: u64,
    },
    /// The snapshot contradicts the rebuilt topology or configuration
    /// (config drift, a restore target that already ran), or holds a value
    /// this build cannot represent.
    Unsupported(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof { at, wanted } => {
                write!(
                    f,
                    "snapshot truncated: {wanted} bytes wanted at offset {at}"
                )
            }
            SnapError::Magic { expected, got } => write!(
                f,
                "snapshot section magic mismatch: expected {expected:#010x}, got {got:#010x}"
            ),
            SnapError::Tag { ty, tag } => write!(f, "invalid {ty} tag {tag} in snapshot"),
            SnapError::Version { got, supported } => write!(
                f,
                "unsupported snapshot version {got} (this binary reads {supported})"
            ),
            SnapError::Checksum { expected, got } => write!(
                f,
                "snapshot checksum mismatch: trailer says {expected:#018x}, content hashes to \
                 {got:#018x} (damaged file)"
            ),
            SnapError::Length { declared, actual } => write!(
                f,
                "snapshot length mismatch: header declares {declared} bytes, file has {actual} \
                 (damaged file)"
            ),
            SnapError::Unsupported(what) => write!(f, "snapshot cannot carry this state: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// A type that travels through a checkpoint. `load` must read exactly the
/// bytes `save` wrote, in the same order; the field-list macros guarantee
/// that by construction, and the few hand-written impls (data-carrying
/// enums) are one `match` per direction.
pub trait Snap: Sized {
    /// Append this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decode a value previously written by [`Snap::save`].
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Bytes a streaming writer ([`SnapWriter::sealed_file`]) buffers before it
/// writes them out: its whole footprint, however large the snapshot.
pub const STREAM_BUF: usize = 64 * 1024;

/// Append-only snapshot writer: into an owned byte buffer, or — for a sealed
/// file — through a fixed [`STREAM_BUF`] buffer into that file.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
    /// `buf` is handed to `sink` before it would grow past this length;
    /// `usize::MAX` for an in-memory writer, which never spills.
    spill_at: usize,
    sink: Option<Sink>,
}

/// Where a streaming writer's bytes go, and what it has learnt of them.
#[derive(Debug)]
struct Sink {
    file: std::fs::File,
    /// FNV-1a of the body bytes spilled so far.
    hash: u64,
    /// Bytes in the file so far, header included.
    len: u64,
    /// The first write error; later spills only keep counting, and
    /// [`SnapWriter::finish`] reports it.
    err: Option<io::Error>,
}

impl Sink {
    /// Write body bytes.
    fn write(&mut self, bytes: &[u8]) {
        self.hash = fnv1a64_extend(self.hash, bytes);
        self.len += bytes.len() as u64;
        if self.err.is_none() {
            self.err = self.file.write_all(bytes).err();
        }
    }
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter {
            buf: Vec::new(),
            spill_at: usize::MAX,
            sink: None,
        }
    }
}

/// The sealed file's header with its length slot still zero.
fn seal_header(magic: u32, version: u32) -> [u8; SEAL_HEADER] {
    let mut h = [0; SEAL_HEADER];
    h[..4].copy_from_slice(&magic.to_le_bytes());
    h[4..8].copy_from_slice(&version.to_le_bytes());
    h
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        assert!(self.sink.is_none(), "a streaming writer ends in finish()");
        self.buf
    }

    /// An in-memory writer for a sealed file (see [`SnapReader::open`]):
    /// the magic and version are written now, the length slot is filled by
    /// [`SnapWriter::seal`].
    pub fn sealed(magic: u32, version: u32) -> Self {
        SnapWriter {
            buf: seal_header(magic, version).to_vec(),
            ..SnapWriter::default()
        }
    }

    /// Finish a writer started with [`SnapWriter::sealed`]: fill in the
    /// total length, append the checksum of the body, and return the
    /// file's bytes.
    pub fn seal(mut self) -> Vec<u8> {
        assert!(self.sink.is_none(), "a streaming writer ends in finish()");
        let total = (self.buf.len() + SEAL_TRAILER) as u64;
        let slot = &mut self.buf[SEAL_HEADER - 8..SEAL_HEADER];
        assert!(slot == [0; 8], "seal() on a writer not started by sealed()");
        slot.copy_from_slice(&total.to_le_bytes());
        self.u64(fnv1a64(&self.buf[SEAL_HEADER..]));
        self.buf
    }

    /// The streaming form of [`SnapWriter::sealed`]: the same bytes, written
    /// into `file` (from its current position, which must be its start)
    /// through one [`STREAM_BUF`] buffer while a running checksum follows
    /// the body. [`SnapWriter::finish`] appends the checksum, seeks back to
    /// fill in the length, and reports any write error.
    pub fn sealed_file(mut file: std::fs::File, magic: u32, version: u32) -> Self {
        let err = file.write_all(&seal_header(magic, version)).err();
        SnapWriter {
            buf: Vec::with_capacity(STREAM_BUF),
            spill_at: STREAM_BUF,
            sink: Some(Sink {
                file,
                hash: FNV1A64_EMPTY,
                len: SEAL_HEADER as u64,
                err,
            }),
        }
    }

    /// Finish a writer started with [`SnapWriter::sealed_file`]: write out
    /// the buffered tail and the checksum trailer, then the total length
    /// into the header. Reports the first write error of the whole file.
    pub fn finish(mut self) -> io::Result<()> {
        let mut sink = self.sink.take().expect("finish() on an in-memory writer");
        sink.write(&self.buf);
        if let Some(e) = sink.err {
            return Err(e);
        }
        let total = sink.len + SEAL_TRAILER as u64;
        sink.file.write_all(&sink.hash.to_le_bytes())?;
        sink.file.seek(SeekFrom::Start(SEAL_HEADER as u64 - 8))?;
        sink.file.write_all(&total.to_le_bytes())
    }

    /// Append raw bytes: the one place the buffer grows.
    fn bytes(&mut self, b: &[u8]) {
        if self.buf.len() + b.len() > self.spill_at {
            self.spill(b);
        } else {
            self.buf.extend_from_slice(b);
        }
    }

    /// The buffer is full: hand it to the sink, then buffer `b` — or pass
    /// it straight through if it alone is larger than the buffer.
    #[cold]
    fn spill(&mut self, b: &[u8]) {
        let sink = self.sink.as_mut().expect("only streaming writers spill");
        sink.write(&self.buf);
        self.buf.clear();
        if b.len() > self.spill_at {
            sink.write(b);
        } else {
            self.buf.extend_from_slice(b);
        }
    }

    /// Write any [`Snap`] value.
    pub fn put<T: Snap>(&mut self, x: &T) {
        x.save(self);
    }

    /// Write a section magic (little-endian `u32`).
    pub fn magic(&mut self, m: u32) {
        self.u32(m);
    }

    /// Write one byte (enum tags).
    pub fn u8(&mut self, x: u8) {
        self.bytes(&[x]);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Write the element count of a sequence whose elements follow.
    pub fn seq_len(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Sequential snapshot reader over a borrowed byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Open a sealed file: check the magic, the version and the declared
    /// length (a shorter file is reported as truncated), then the body's
    /// checksum and that the file is no longer than declared — all before
    /// any of the body is decoded. The returned reader is positioned at the
    /// start of the body and ends where the body does.
    pub fn open(buf: &'a [u8], magic: u32, version: u32) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(buf);
        r.expect_magic(magic)?;
        let got = r.u32()?;
        if got != version {
            return Err(SnapError::Version {
                got,
                supported: version,
            });
        }
        let total = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
        let len = buf.len();
        if total > len || len < SEAL_HEADER + SEAL_TRAILER {
            return Err(SnapError::Eof {
                at: len,
                wanted: total.max(SEAL_HEADER + SEAL_TRAILER) - len,
            });
        }
        let (content, trailer) = buf.split_at(len - SEAL_TRAILER);
        let expected = SnapReader::new(trailer).u64()?;
        let got = fnv1a64(&content[SEAL_HEADER..]);
        if got != expected {
            return Err(SnapError::Checksum { expected, got });
        }
        // The checksum covers the body only: a length slot damaged to a
        // smaller value is caught here, a larger one above as truncation.
        if total != len {
            return Err(SnapError::Length {
                declared: total as u64,
                actual: len as u64,
            });
        }
        r.buf = content;
        Ok(r)
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof {
                at: self.pos,
                wanted: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read any [`Snap`] value.
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::load(self)
    }

    /// Read one byte (enum tags).
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read the element count of a sequence. Every element encodes to at
    /// least one byte, so a count above the bytes remaining cannot be
    /// honest: it is refused here, before the caller allocates or loops.
    /// This is the only way to read a length.
    pub fn seq_len(&mut self) -> Result<usize, SnapError> {
        let n = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        if n > self.remaining() {
            return Err(SnapError::Eof {
                at: self.pos,
                wanted: n,
            });
        }
        Ok(n)
    }

    /// Read a `u32` and require it to equal `expected`.
    pub fn expect_magic(&mut self, expected: u32) -> Result<(), SnapError> {
        let got = self.u32()?;
        if got != expected {
            return Err(SnapError::Magic { expected, got });
        }
        Ok(())
    }
}

/// Implement [`Snap`] for a struct from its field list, written once:
/// `snap_struct!(T { a, b, c; scratch })`. Fields before the `;` are saved
/// and loaded in the order given; fields after it are transient and come
/// back as `Default::default()`. Generic structs name their parameters
/// first: `snap_struct!(impl<P> Packet<P> { .. })`.
#[macro_export]
macro_rules! snap_struct {
    (impl<$($g:ident),+> $t:ty { $($body:tt)* }) => {
        $crate::snap_struct!(@impl [$($g: $crate::snap::Snap),+] $t { $($body)* });
    };
    (@impl [$($bound:tt)*] $t:ty { $($f:ident),* $(,)? $(; $($d:ident),* $(,)?)? }) => {
        impl<$($bound)*> $crate::snap::Snap for $t {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $( w.put(&self.$f); )*
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                Ok(Self {
                    $( $f: r.get()?, )*
                    $($( $d: ::std::default::Default::default(), )*)?
                })
            }
        }
    };
    ($t:ty { $($body:tt)* }) => {
        $crate::snap_struct!(@impl [] $t { $($body)* });
    };
}

/// Implement [`Snap`] for a fieldless enum as one tag byte:
/// `snap_enum!(Phase { SynSent = 0, Established = 1 })`. The save side is
/// an exhaustive `match`, so a new variant does not compile until it has a
/// tag; an unknown tag decodes to [`SnapError::Tag`].
#[macro_export]
macro_rules! snap_enum {
    ($t:ident { $($v:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::snap::Snap for $t {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                w.u8(match self { $( $t::$v => $tag, )+ });
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                match r.u8()? {
                    $( $tag => Ok($t::$v), )+
                    tag => Err($crate::snap::SnapError::Tag { ty: stringify!($t), tag }),
                }
            }
        }
    };
}

/// Implement [`Snap`] for a type that travels as another one. A tuple
/// newtype is `snap_via!(NodeId(u32))`; anything else names the carrier
/// and the two conversions, the decoding one fallible:
/// `snap_via!(SimTime as u64, |t| t.as_nanos(), |ns| Ok(SimTime::from_nanos(ns)))`.
#[macro_export]
macro_rules! snap_via {
    ($t:ident($inner:ty)) => {
        $crate::snap_via!($t as $inner, |x| x.0, |v| Ok($t(v)));
    };
    ($t:ty as $inner:ty, $to:expr, $from:expr) => {
        impl $crate::snap::Snap for $t {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let to: fn(&$t) -> $inner = $to;
                w.put(&to(self));
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapError> {
                let from: fn($inner) -> ::std::result::Result<$t, $crate::snap::SnapError> = $from;
                from(r.get()?)
            }
        }
    };
}

/// The in-place form of [`snap_struct!`](crate::snap_struct), used inside
/// an `impl` block: `snap_fields!(fn save_state, load_state { reno, cfg.limit })`
/// defines a method that saves the listed fields (paths allowed) and one
/// that loads them over `&mut self`, leaving every other field — whatever
/// the rebuild from configuration put there — untouched.
#[macro_export]
macro_rules! snap_fields {
    ($vis:vis fn $save:ident, $load:ident { $($($f:ident).+),* $(,)? }) => {
        #[doc = "Write this value's checkpointed fields."]
        $vis fn $save(&self, w: &mut $crate::snap::SnapWriter) {
            $( w.put(&self.$($f).+); )*
        }
        #[doc = "Overlay the fields written by the matching save method."]
        $vis fn $load(
            &mut self,
            r: &mut $crate::snap::SnapReader<'_>,
        ) -> ::std::result::Result<(), $crate::snap::SnapError> {
            $( self.$($f).+ = r.get()?; )*
            Ok(())
        }
    };
}

macro_rules! snap_int {
    ($($t:ident),*) => {$(
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$t()
            }
        }
    )*};
}
snap_int!(u8, u32, u64);
snap_via!(usize as u64, |n| *n as u64, |n| usize::try_from(n).map_err(
    |_| SnapError::Unsupported(format!("count {n} does not fit this platform's usize"))
));
// IEEE-754 bit pattern: exact round-trip, NaN payloads and -0.0 included.
snap_via!(f64 as u64, |x| x.to_bits(), |bits| Ok(f64::from_bits(bits)));

/// One byte, strictly 0 or 1: a flipped bit in a flag is an error, not a
/// different truth value.
impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::Tag { ty: "bool", tag }),
        }
    }
}

/// A presence flag, then the value only if present.
impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.is_some());
        if let Some(x) = self {
            w.put(x);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if r.get()? { Some(r.get()?) } else { None })
    }
}

fn save_str(s: &str, w: &mut SnapWriter) {
    w.seq_len(s.len());
    w.bytes(s.as_bytes());
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        save_str(self, w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.seq_len()?;
        String::from_utf8(r.take(n)?.to_vec())
            .map_err(|_| SnapError::Unsupported("non-UTF-8 string in snapshot".into()))
    }
}

/// Names that are string literals in the live system (scheme names in flow
/// records). A checkpoint brings them back as owned strings, which are
/// leaked at most once per distinct name — bounded by the number of
/// schemes, not flows. Not for free-form text: use `String`.
impl Snap for &'static str {
    fn save(&self, w: &mut SnapWriter) {
        save_str(self, w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        use std::sync::{Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
        let s: String = r.get()?;
        let mut cache = CACHE
            .get_or_init(|| Mutex::new(Vec::new()))
            .lock()
            .expect("interning never panics while holding the lock");
        if let Some(&n) = cache.iter().find(|&&n| n == s) {
            return Ok(n);
        }
        let n: &'static str = Box::leak(s.into_boxed_str());
        cache.push(n);
        Ok(n)
    }
}

/// Elements of a length-prefixed sequence. Collecting through `Result`
/// reserves nothing up front, so even a count that passed
/// [`SnapReader::seq_len`] only costs memory as elements really decode.
fn load_seq<T: Snap, C: FromIterator<T>>(r: &mut SnapReader<'_>) -> Result<C, SnapError> {
    (0..r.seq_len()?).map(|_| r.get()).collect()
}

macro_rules! snap_seq {
    ($($c:ident),*) => {$(
        impl<T: Snap> Snap for $c<T> {
            fn save(&self, w: &mut SnapWriter) {
                w.seq_len(self.len());
                self.iter().for_each(|x| w.put(x));
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                load_seq(r)
            }
        }
    )*};
}
snap_seq!(Vec, VecDeque);

/// Fixed length, so no prefix.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        self.iter().for_each(|x| w.put(x));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let items: Vec<T> = (0..N).map(|_| r.get()).collect::<Result<_, _>>()?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly N elements were decoded")))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.0);
        w.put(&self.1);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((r.get()?, r.get()?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.0);
        w.put(&self.1);
        w.put(&self.2);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((r.get()?, r.get()?, r.get()?))
    }
}

/// Ascending key order (the map's own), so the bytes are deterministic.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.seq_len(self.len());
        for (k, v) in self {
            w.put(k);
            w.put(v);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        load_seq(r)
    }
}

/// Hash maps (any hasher, `FastMap` included) iterate in an unspecified
/// order, so they are saved in ascending key order: the same map always
/// produces the same bytes.
impl<K: Snap + Ord + Hash, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    fn save(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.seq_len(entries.len());
        for (k, v) in entries {
            w.put(k);
            w.put(v);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        load_seq(r)
    }
}

snap_via!(NodeId(u32));
snap_via!(LinkId(u32));
snap_via!(FlowId(u64));
snap_via!(PacketId(u64));
snap_via!(TimerId(u64));
snap_via!(SimTime as u64, |t| t.as_nanos(), |ns| Ok(
    SimTime::from_nanos(ns)
));
snap_via!(SimDuration as u64, |d| d.as_nanos(), |ns| Ok(
    SimDuration::from_nanos(ns)
));
snap_via!(Rate as u64, |x| x.as_bps(), |bps| Ok(Rate::from_bps(bps)));

/// Save `x`, load it back, save again: the two encodings must be equal
/// byte for byte and the decode must consume all of the first. One generic
/// check that covers any implementor, for tests across the workspace;
/// returns the decoded copy for tests that go on to use it.
pub fn assert_roundtrip<T: Snap>(x: &T) -> T {
    let mut w = SnapWriter::new();
    w.put(x);
    let bytes = w.into_bytes();
    let what = std::any::type_name::<T>();
    let mut r = SnapReader::new(&bytes);
    let back: T = r
        .get()
        .unwrap_or_else(|e| panic!("{what} does not decode its own encoding: {e}"));
    assert_eq!(r.remaining(), 0, "{what}: load read less than save wrote");
    let mut w2 = SnapWriter::new();
    w2.put(&back);
    assert!(
        bytes == w2.into_bytes(),
        "{what}: save -> load -> save is not a fixed point"
    );
    back
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode<T: Snap>(x: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(x);
        w.into_bytes()
    }

    /// Round-trips, and every strict prefix of the encoding is `Eof`.
    fn check<T: Snap + PartialEq + fmt::Debug>(x: T) {
        assert_eq!(assert_roundtrip(&x), x);
        let bytes = encode(&x);
        for cut in 0..bytes.len() {
            match SnapReader::new(&bytes[..cut]).get::<T>() {
                Err(SnapError::Eof { .. }) => {}
                other => panic!("{x:?} cut to {cut}/{} bytes: {other:?}", bytes.len()),
            }
        }
    }

    #[derive(Debug, PartialEq, Default)]
    struct Sample {
        id: u64,
        at: Option<SimTime>,
        tags: Vec<u32>,
        scratch: Vec<u8>,
        hits: u64,
    }
    snap_struct!(Sample { id, at, tags; scratch, hits });

    #[derive(Debug, PartialEq)]
    struct Wrapped<P> {
        seq: u64,
        body: P,
    }
    snap_struct!(impl<P> Wrapped<P> { seq, body });

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Colour {
        Red,
        Green,
    }
    snap_enum!(Colour { Red = 0, Green = 7 });

    struct Overlay {
        capacity: u64,
        level: u64,
        inner: Sample,
    }
    impl Overlay {
        snap_fields!(fn save_level, load_level { level, inner.tags });
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.magic(SNAP_MAGIC);
        w.u8(7);
        w.put(&true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.put(&12345usize);
        w.put(&-0.0f64);
        w.put(&f64::INFINITY);
        w.put(&"weather".to_string());
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.expect_magic(SNAP_MAGIC).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.get::<bool>().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get::<usize>().unwrap(), 12345);
        assert_eq!(r.get::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get::<f64>().unwrap(), f64::INFINITY);
        assert_eq!(r.get::<String>().unwrap(), "weather");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn generic_impls_round_trip_and_every_prefix_is_eof() {
        check(0xABu8);
        check(0xDEAD_BEEFu32);
        check(u64::MAX - 3);
        check(12345usize);
        check(f64::NEG_INFINITY);
        check(true);
        check("internet weather".to_string());
        check("Halfback");
        check(Some(SimDuration::from_millis(3)));
        check(None::<u64>);
        check(vec![1u32, 2, 3]);
        check(Vec::<u64>::new());
        check(VecDeque::from([Some(1u8), None]));
        check([(1u32, 2u32), (3, 4)]);
        check((NodeId(1), LinkId(2), FlowId(3)));
        check(BTreeMap::from([(1u32, 10u32), (5, 50)]));
        check(HashMap::<u64, String>::from([
            (9, "a".into()),
            (2, "b".into()),
        ]));
        check((PacketId(4), TimerId(5)));
        check((SimTime::from_nanos(6), Rate::from_mbps(15)));
        check(Colour::Green);
        check(Wrapped {
            seq: 3,
            body: vec![Colour::Red],
        });
    }

    #[test]
    fn hash_maps_save_in_key_order() {
        let mut a = HashMap::<u64, u8>::new();
        let mut b = HashMap::<u64, u8>::new();
        for k in 0..200u64 {
            a.insert(k, k as u8);
            b.insert(199 - k, (199 - k) as u8);
        }
        assert_eq!(encode(&a), encode(&b));
        assert_eq!(
            encode(&a),
            encode(&a.iter().map(|(&k, &v)| (k, v)).collect::<BTreeMap<_, _>>())
        );
    }

    #[test]
    fn struct_transients_come_back_as_default() {
        let s = Sample {
            id: 9,
            at: Some(SimTime::from_nanos(5)),
            tags: vec![1, 2],
            scratch: vec![0xFF; 32],
            hits: 77,
        };
        assert_eq!(
            assert_roundtrip(&s),
            Sample {
                scratch: Vec::new(),
                hits: 0,
                ..s
            }
        );
    }

    #[test]
    fn fields_overlay_leaves_the_rest_alone() {
        let src = Overlay {
            capacity: 1,
            level: 42,
            inner: Sample {
                tags: vec![7],
                ..Sample::default()
            },
        };
        let mut w = SnapWriter::new();
        src.save_level(&mut w);
        let bytes = w.into_bytes();
        let mut dst = Overlay {
            capacity: 1000,
            level: 0,
            inner: Sample {
                hits: 5,
                ..Sample::default()
            },
        };
        let mut r = SnapReader::new(&bytes);
        dst.load_level(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!((dst.capacity, dst.level), (1000, 42));
        assert_eq!((dst.inner.hits, &dst.inner.tags[..]), (5, &[7u32][..]));
        assert_eq!(src.capacity, 1);
    }

    #[test]
    fn bad_tags_are_refused() {
        fn tag<T>(ty: &'static str) -> Result<T, SnapError> {
            Err(SnapError::Tag { ty, tag: 2 })
        }
        assert_eq!(SnapReader::new(&[2]).get::<Colour>(), tag("Colour"));
        assert_eq!(SnapReader::new(&[2]).get::<bool>(), tag("bool"));
        assert_eq!(SnapReader::new(&[2, 0]).get::<Option<u8>>(), tag("bool"));
    }

    #[test]
    fn seq_len_is_bounded_by_the_bytes_remaining() {
        // Three one-byte elements follow: a count of 3 is honest, 4 is not.
        let mut honest = encode(&3u64);
        honest.extend([1, 2, 3]);
        assert_eq!(SnapReader::new(&honest).seq_len().unwrap(), 3);
        assert_eq!(
            SnapReader::new(&honest).get::<Vec<u8>>().unwrap(),
            [1, 2, 3]
        );
        let mut greedy = encode(&4u64);
        greedy.extend([1, 2, 3]);
        assert_eq!(
            SnapReader::new(&greedy).seq_len(),
            Err(SnapError::Eof { at: 8, wanted: 4 })
        );
        // The ISSUE's repro: a flipped high bit in a length prefix used to
        // reach `Vec::with_capacity` and abort on a 19 TB allocation.
        let huge = encode(&(1u64 << 44));
        for ty in ["vec", "string", "map"] {
            let mut r = SnapReader::new(&huge);
            let err = match ty {
                "vec" => r.get::<Vec<u64>>().err(),
                "string" => r.get::<String>().err(),
                _ => r.get::<BTreeMap<u32, u32>>().err(),
            };
            assert!(matches!(err, Some(SnapError::Eof { .. })), "{ty}: {err:?}");
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode(&1u64);
        let mut r = SnapReader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(SnapError::Eof { .. })));
    }

    #[test]
    fn magic_mismatch_is_detected() {
        let mut w = SnapWriter::new();
        w.magic(0x1111_2222);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.expect_magic(0x3333_4444),
            Err(SnapError::Magic { .. })
        ));
    }

    #[test]
    fn sealed_files_refuse_damage_before_decoding() {
        const MAGIC: u32 = 0x4842_7E57;
        let mut w = SnapWriter::sealed(MAGIC, 2);
        w.put(&vec![10u64, 20, 30]);
        let file = w.seal();

        let mut r = SnapReader::open(&file, MAGIC, 2).unwrap();
        assert_eq!(r.get::<Vec<u64>>().unwrap(), [10, 20, 30]);
        assert_eq!(r.remaining(), 0, "the trailer is not part of the body");

        assert!(matches!(
            SnapReader::open(&file, MAGIC + 1, 2),
            Err(SnapError::Magic { .. })
        ));
        assert_eq!(
            SnapReader::open(&file, MAGIC, 3).err(),
            Some(SnapError::Version {
                got: 2,
                supported: 3
            })
        );
        for cut in 0..file.len() {
            let err = SnapReader::open(&file[..cut], MAGIC, 2).unwrap_err();
            assert!(matches!(err, SnapError::Eof { .. }), "cut {cut}: {err}");
            assert!(err.to_string().contains("snapshot truncated"));
        }
        let mut longer = file.clone();
        longer.push(0);
        assert!(matches!(
            SnapReader::open(&longer, MAGIC, 2),
            Err(SnapError::Checksum { .. })
        ));
        // Every single-bit flip is refused: in the header by the field it
        // hits, anywhere else by the checksum.
        for bit in 0..file.len() * 8 {
            assert_flip_refused(&file, bit, MAGIC, 2);
        }
    }

    /// Flip one bit of a sealed file: `open` must refuse it — past the
    /// header always by the checksum, in the header by the field it hits.
    fn assert_flip_refused(file: &[u8], bit: usize, magic: u32, version: u32) {
        let mut bad = file.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        let err = SnapReader::open(&bad, magic, version).unwrap_err();
        let expected = match bit / 8 {
            0..4 => matches!(err, SnapError::Magic { .. }),
            4..8 => matches!(err, SnapError::Version { .. }),
            // A length slot flipped up reads as a truncation, down as a
            // file longer than declared.
            8..SEAL_HEADER => matches!(err, SnapError::Eof { .. } | SnapError::Length { .. }),
            _ => matches!(err, SnapError::Checksum { .. }),
        };
        assert!(expected, "bit {bit}: {err}");
    }

    /// A temp file path unique to this process and test.
    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("halfback-snap-{}-{tag}", std::process::id()))
    }

    /// Write `body` twice — in memory through `seal()` and streamed through
    /// `sealed_file` — and return both files' bytes.
    fn seal_both(body: impl Fn(&mut SnapWriter), version: u32, tag: &str) -> (Vec<u8>, Vec<u8>) {
        const MAGIC: u32 = 0x4842_5354;
        let mut w = SnapWriter::sealed(MAGIC, version);
        body(&mut w);
        let in_memory = w.seal();
        let path = tmp_path(tag);
        let mut w = SnapWriter::sealed_file(std::fs::File::create(&path).unwrap(), MAGIC, version);
        body(&mut w);
        assert!(w.buf.capacity() <= STREAM_BUF, "the stream buffer grew");
        w.finish().unwrap();
        let streamed = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (in_memory, streamed)
    }

    #[test]
    fn streamed_file_matches_the_in_memory_seal() {
        // ~330 KB of body: five spills of the 64 KiB buffer, one string
        // larger than the buffer (written straight through), and writes
        // that straddle each spill.
        let long = "w".repeat(STREAM_BUF + 17);
        let body = |w: &mut SnapWriter| {
            w.put(&(0..20_000u64).collect::<Vec<_>>());
            w.put(&long);
            for i in 0..30_000u32 {
                w.u8(i as u8);
                w.u32(i);
            }
        };
        let (in_memory, streamed) = seal_both(body, 4, "stream");
        assert!(streamed.len() > 4 * STREAM_BUF);
        assert!(in_memory == streamed, "streamed file differs from seal()");

        let mut r = SnapReader::open(&streamed, 0x4842_5354, 4).unwrap();
        assert_eq!(r.get::<Vec<u64>>().unwrap().len(), 20_000);
        assert_eq!(r.get::<String>().unwrap(), long);
        for i in 0..30_000u32 {
            assert_eq!((r.u8().unwrap(), r.u32().unwrap()), (i as u8, i));
        }
        assert_eq!(r.remaining(), 0);

        // Every cut is a truncation; every bit of the header and trailer,
        // both sides of every spill boundary and a seeded sample of the
        // rest is refused with the error its position calls for.
        for cut in 0..streamed.len() {
            let err = SnapReader::open(&streamed[..cut], 0x4842_5354, 4).unwrap_err();
            assert!(matches!(err, SnapError::Eof { .. }), "cut {cut}: {err}");
        }
        let n = streamed.len();
        let spills = (1..=n / STREAM_BUF).map(|k| SEAL_HEADER + k * STREAM_BUF);
        let mut bytes: Vec<usize> = (0..SEAL_HEADER + 8).chain(n - 8..n).collect();
        bytes.extend(spills.flat_map(|b| b - 4..(b + 4).min(n)));
        let mut rng = crate::rng::SimRng::new(0x5EA1);
        bytes.extend((0..64).map(|_| rng.index(n)));
        for byte in bytes {
            for bit in 0..8 {
                assert_flip_refused(&streamed, byte * 8 + bit, 0x4842_5354, 4);
            }
        }
    }

    #[test]
    fn older_version_files_are_refused_by_version() {
        let (_, v3) = seal_both(|w| w.put(&vec![1u32; 10]), 3, "v3");
        assert_eq!(
            SnapReader::open(&v3, 0x4842_5354, 4).err(),
            Some(SnapError::Version {
                got: 3,
                supported: 4
            })
        );
    }

    #[test]
    fn write_errors_surface_in_finish() {
        // Linux's /dev/full accepts the open and refuses every write, the
        // header's first: the writer carries on through several spills and
        // finish() reports the error.
        let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
            return;
        };
        let mut w = SnapWriter::sealed_file(full, 1, 1);
        w.put(&vec![7u64; 3 * STREAM_BUF / 8]);
        let err = w.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
    }
}
