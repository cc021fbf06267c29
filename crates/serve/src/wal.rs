//! Append-only campaign write-ahead log: the answer records and delta
//! frames that ride on a campaign's base state file.
//!
//! A campaign's durable state is **base + delta frames + answer tail**.
//! The base is the `{id}.campaign.json` state file
//! ([`crate::registry`]). This log holds two kinds of frame after it:
//!
//! * an **answer record** for every accepted answer, appended and
//!   `fdatasync`ed *before* the 2xx goes back to the worker, so a
//!   `kill -9` loses at most answers the server never acknowledged;
//! * a **delta frame** every 128 answers: the campaign state those
//!   answers changed, diffed against the state the base and the earlier
//!   frames fold to. The registry owns the delta's contents (the
//!   `delta` module); to this module it is an opaque payload.
//!
//! On restart the registry folds the delta frames into the base, then
//! re-applies the answer records past the last folded frame in order,
//! which reproduces the engine state bit-identically (answer
//! application is deterministic in arrival order). The log is emptied
//! with [`Wal::reset`] only after a new base is durable; a crash in
//! between leaves frames and records the next replay skips by `seq`.
//!
//! The on-disk format reuses the `.rkb` framing idiom
//! ([`remp_ingest::framing`]): an 8-byte header (magic `RWAL`,
//! `version: u32`), then one frame per entry — `payload length: u32`,
//! `FNV-1a 64 checksum: u64`, payload, all little-endian. In version 2
//! the payload starts with a kind byte: `1` for an answer record
//! (`seq: u64, question: u64, worker: str, says_match: u8, now_ms:
//! u64`), `2` for a delta frame. Answer payloads are capped at 64 KiB,
//! delta payloads at [`MAX_DELTA`]. A version-1 log (answer records
//! only, no kind byte) is rewritten as version 2 on open. A crash
//! mid-append leaves a torn final frame (short, or checksum mismatch);
//! [`Wal::open`] truncates it and reports how many bytes were dropped.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use remp_ingest::framing::{fnv1a64, fnv1a64_update, put_str, put_u32, put_u64};

/// File magic for campaign WALs.
pub const MAGIC: [u8; 4] = *b"RWAL";
/// Format version (bumped on incompatible payload changes); version 2
/// added the frame kind byte and delta frames.
pub const VERSION: u32 = 2;
/// Header bytes before the first frame.
const HEADER_LEN: u64 = 8;
/// Frame bytes before the payload: length and checksum.
const FRAME_HEADER: usize = 12;
/// Largest plausible answer-record payload; a length beyond this is
/// garbage (a worker id would have to be tens of KiB), so the scan
/// treats it as a torn tail instead of trusting it.
const MAX_RECORD: usize = 64 * 1024;
/// Largest delta-frame payload. A delta this big costs as much as a
/// base, so the registry writes a new base instead.
pub const MAX_DELTA: usize = 256 << 20;
/// Kind byte of an answer record.
const KIND_ANSWER: u8 = 1;
/// Kind byte of a delta frame.
const KIND_DELTA: u8 = 2;

/// One accepted answer, exactly as the engine needs it re-applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// 1-based count of accepted answers in this campaign — monotone,
    /// so replay can skip records a base or delta already folded in.
    pub seq: u64,
    /// Question id the answer is for.
    pub question: u64,
    /// Worker who answered.
    pub worker: String,
    /// The verdict.
    pub says_match: bool,
    /// Engine clock at acceptance (drives lease bookkeeping on replay).
    pub now_ms: u64,
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(29 + self.worker.len());
        put_u64(&mut b, self.seq);
        put_u64(&mut b, self.question);
        put_str(&mut b, &self.worker);
        b.push(self.says_match as u8);
        put_u64(&mut b, self.now_ms);
        b
    }

    fn decode(payload: &[u8]) -> Option<WalRecord> {
        if payload.len() > MAX_RECORD {
            return None;
        }
        let mut pos = 0usize;
        let mut take = |n: usize| -> Option<&[u8]> {
            let end = pos.checked_add(n)?;
            let out = payload.get(pos..end)?;
            pos = end;
            Some(out)
        };
        let seq = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let question = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let worker_len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        let worker = String::from_utf8(take(worker_len)?.to_vec()).ok()?;
        let says_match = match take(1)?[0] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let now_ms = u64::from_le_bytes(take(8)?.try_into().ok()?);
        if pos != payload.len() {
            return None; // trailing garbage inside a checksummed frame
        }
        Some(WalRecord { seq, question, worker, says_match, now_ms })
    }
}

/// One intact frame of a log, in append order.
#[derive(Clone, Debug, PartialEq)]
pub enum WalFrame {
    /// An accepted answer.
    Answer(WalRecord),
    /// A delta frame's payload (kind byte stripped).
    Delta(Vec<u8>),
}

impl WalFrame {
    /// Decodes one checksummed payload of a `version` log.
    fn decode(version: u32, payload: &[u8]) -> Option<WalFrame> {
        if version == 1 {
            return WalRecord::decode(payload).map(WalFrame::Answer);
        }
        let (&kind, body) = payload.split_first()?;
        match kind {
            KIND_ANSWER => WalRecord::decode(body).map(WalFrame::Answer),
            KIND_DELTA if body.len() <= MAX_DELTA => Some(WalFrame::Delta(body.to_vec())),
            _ => None,
        }
    }

    /// The framed bytes: length, checksum, kind byte, body.
    fn encode(&self) -> Vec<u8> {
        match self {
            WalFrame::Answer(record) => frame(KIND_ANSWER, &record.encode()),
            WalFrame::Delta(body) => frame(KIND_DELTA, body),
        }
    }
}

fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + 1 + body.len());
    put_u32(&mut out, (1 + body.len()) as u32);
    put_u64(&mut out, fnv1a64_update(fnv1a64(&[kind]), body));
    out.push(kind);
    out.extend_from_slice(body);
    out
}

/// What [`Wal::open`] found in an existing log.
#[derive(Debug)]
pub struct WalReplay {
    /// Every intact frame, in append order.
    pub frames: Vec<WalFrame>,
    /// Bytes of torn tail that were truncated away, if any.
    pub truncated_tail: Option<u64>,
}

/// An open campaign WAL, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
}

/// The WAL file path for campaign `id` under `state_dir`.
pub fn wal_path(state_dir: &Path, id: &str) -> PathBuf {
    state_dir.join(format!("{id}.wal"))
}

/// Fsyncs a directory, making the renames and creations inside it
/// durable.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn header(version: u32) -> [u8; HEADER_LEN as usize] {
    let mut out = [0u8; HEADER_LEN as usize];
    out[..4].copy_from_slice(&MAGIC);
    out[4..].copy_from_slice(&version.to_le_bytes());
    out
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path`, validates every
    /// frame, truncates any torn tail, and returns the writer positioned
    /// at the end plus everything intact for replay.
    pub fn open(path: &Path) -> io::Result<(Wal, WalReplay)> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let disk_len = file.metadata()?.len();
        if disk_len < HEADER_LEN {
            // Fresh file, or a crash tore the header itself: start over.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header(VERSION))?;
            file.sync_data()?;
            let truncated_tail = (disk_len > 0).then_some(disk_len);
            let wal = Wal { file, path: path.to_path_buf(), bytes: HEADER_LEN };
            return Ok((wal, WalReplay { frames: Vec::new(), truncated_tail }));
        }

        file.seek(SeekFrom::Start(0))?;
        let mut head = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut head)?;
        if head[..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: bad magic (not a campaign WAL)", path.display()),
            ));
        }
        let version = u32::from_le_bytes(head[4..8].try_into().expect("4-byte slice"));
        if version != 1 && version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: unsupported WAL version {version} (this build reads 1 and {VERSION})",
                    path.display()
                ),
            ));
        }

        let mut body = Vec::with_capacity((disk_len - HEADER_LEN) as usize);
        file.read_to_end(&mut body)?;
        let mut frames = Vec::new();
        let mut pos = 0usize;
        // Scan frames until the first short or corrupt one — everything
        // from there on is a torn tail from a crash mid-append.
        while body.len() - pos >= FRAME_HEADER {
            let rest = body.len() - pos - FRAME_HEADER;
            let len =
                u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4-byte slice")) as usize;
            if len > rest {
                break; // torn or garbage length
            }
            let sum = u64::from_le_bytes(body[pos + 4..pos + 12].try_into().expect("8-byte slice"));
            let payload = &body[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
            if fnv1a64(payload) != sum {
                break; // torn payload
            }
            let Some(frame) = WalFrame::decode(version, payload) else {
                break; // checksummed but undecodable — treat as torn
            };
            frames.push(frame);
            pos += FRAME_HEADER + len;
        }

        let valid_end = HEADER_LEN + pos as u64;
        let truncated_tail = (valid_end < disk_len).then_some(disk_len - valid_end);
        if version != VERSION {
            drop(file);
            let wal = Wal::upgrade(path, &frames)?;
            return Ok((wal, WalReplay { frames, truncated_tail }));
        }
        if truncated_tail.is_some() {
            file.set_len(valid_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_end))?;
        let wal = Wal { file, path: path.to_path_buf(), bytes: valid_end };
        Ok((wal, WalReplay { frames, truncated_tail }))
    }

    /// Rewrites an older-version log's intact `frames` as a current one
    /// (staged file, fsync, rename, directory fsync), so every later
    /// append lands in one format.
    fn upgrade(path: &Path, frames: &[WalFrame]) -> io::Result<Wal> {
        let mut bytes = header(VERSION).to_vec();
        for frame in frames {
            bytes.extend_from_slice(&frame.encode());
        }
        let staging = path.with_extension("wal.upgrade");
        let mut staged = File::create(&staging)?;
        staged.write_all(&bytes)?;
        staged.sync_all()?;
        drop(staged);
        std::fs::rename(&staging, path)?;
        if let Some(dir) = path.parent() {
            sync_dir(dir)?;
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal { file, path: path.to_path_buf(), bytes: bytes.len() as u64 })
    }

    /// Appends one answer record and syncs it to disk. Returns the frame
    /// size in bytes. Only after this returns may the answer be
    /// acknowledged.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        self.append_frame(&frame(KIND_ANSWER, &record.encode()))
    }

    /// Appends one delta frame holding `body` and syncs it to disk.
    /// Returns the frame size in bytes.
    pub fn append_delta(&mut self, body: &[u8]) -> io::Result<u64> {
        if body.len() > MAX_DELTA {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("delta of {} bytes exceeds the {MAX_DELTA}-byte frame cap", body.len()),
            ));
        }
        self.append_frame(&frame(KIND_DELTA, body))
    }

    fn append_frame(&mut self, frame: &[u8]) -> io::Result<u64> {
        if let Err(e) = self.file.write_all(frame).and_then(|()| self.file.sync_data()) {
            // Cut a partial frame back off, so later appends do not land
            // behind bytes the replay scan would stop at.
            let _ = self.file.set_len(self.bytes);
            let _ = self.file.seek(SeekFrom::Start(self.bytes));
            return Err(e);
        }
        self.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Current file size in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Where this WAL lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Drops every frame, keeping the header — called right after a new
    /// base has folded them in. Safe ordering: durable base first, then
    /// reset; a crash in between leaves frames the next replay skips by
    /// `seq`.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.file.sync_data()?;
        self.bytes = HEADER_LEN;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("remp-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("c0.wal")
    }

    fn record(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            question: 40 + seq,
            worker: format!("w{seq}"),
            says_match: seq.is_multiple_of(2),
            now_ms: 1_000 * seq,
        }
    }

    fn answers(frames: &[WalFrame]) -> Vec<WalRecord> {
        frames
            .iter()
            .filter_map(|f| match f {
                WalFrame::Answer(r) => Some(r.clone()),
                WalFrame::Delta(_) => None,
            })
            .collect()
    }

    #[test]
    fn appends_replay_in_order() {
        let path = tmp("roundtrip");
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert!(replay.frames.is_empty());
        assert_eq!(replay.truncated_tail, None);
        for seq in 1..=5 {
            wal.append(&record(seq)).unwrap();
        }
        wal.append_delta(b"delta after five").unwrap();
        wal.append(&record(6)).unwrap();
        let bytes = wal.bytes();
        drop(wal);

        let (wal, replay) = Wal::open(&path).unwrap();
        let mut want: Vec<WalFrame> = (1..=5).map(|s| WalFrame::Answer(record(s))).collect();
        want.push(WalFrame::Delta(b"delta after five".to_vec()));
        want.push(WalFrame::Answer(record(6)));
        assert_eq!(replay.frames, want);
        assert_eq!(replay.truncated_tail, None);
        assert_eq!(wal.bytes(), bytes, "reopen finds the same end");
    }

    #[test]
    fn torn_tails_are_truncated_at_every_cut_point() {
        // A torn answer record and a torn delta frame at the tail.
        let thirds = [WalFrame::Answer(record(3)), WalFrame::Delta(vec![9u8; 40])];
        for third in thirds {
            let path = tmp("torn-ref");
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&record(1)).unwrap();
            wal.append_delta(&[7u8; 40]).unwrap();
            let second_end = wal.bytes() as usize;
            wal.append_frame(&third.encode()).unwrap();
            drop(wal);
            let reference = std::fs::read(&path).unwrap();
            // Cut the file after every byte count past the first two
            // frames: replay must always recover exactly those two.
            for cut in second_end..reference.len() - 1 {
                let path = tmp("torn-cut");
                std::fs::write(&path, &reference[..cut]).unwrap();
                let (wal, replay) = Wal::open(&path).unwrap();
                assert_eq!(replay.frames.len(), 2, "cut at {cut}");
                if cut > second_end {
                    let torn = Some((cut - second_end) as u64);
                    assert_eq!(replay.truncated_tail, torn, "cut at {cut}");
                }
                assert_eq!(wal.bytes(), second_end as u64, "cut at {cut}");
                assert_eq!(std::fs::metadata(&path).unwrap().len(), second_end as u64);
            }
        }
    }

    #[test]
    fn corrupt_checksum_drops_the_record_and_its_tail() {
        let path = tmp("corrupt");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let mut first_end = HEADER_LEN;
        for seq in 1..=3 {
            let n = wal.append(&record(seq)).unwrap();
            if seq == 1 {
                first_end += n;
            }
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = first_end as usize + 20; // inside record 2's payload
        bytes[flip] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(answers(&replay.frames), vec![record(1)], "record 2 is corrupt, 3 unreachable");
        assert!(replay.truncated_tail.is_some());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first_end);
    }

    #[test]
    fn reset_keeps_the_header_and_accepts_new_records() {
        let path = tmp("reset");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for seq in 1..=4 {
            wal.append(&record(seq)).unwrap();
        }
        wal.append_delta(b"folded").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.bytes(), HEADER_LEN);
        wal.append(&record(5)).unwrap();
        drop(wal);

        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.frames, vec![WalFrame::Answer(record(5))]);
    }

    #[test]
    fn version_one_logs_are_upgraded_in_place() {
        let path = tmp("v1");
        let mut v1 = header(1).to_vec();
        for seq in 1..=3 {
            let payload = record(seq).encode();
            put_u32(&mut v1, payload.len() as u32);
            put_u64(&mut v1, fnv1a64(&payload));
            v1.extend_from_slice(&payload);
        }
        v1.extend_from_slice(&[0xAB; 5]); // torn tail
        std::fs::write(&path, &v1).unwrap();

        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(answers(&replay.frames), (1..=3).map(record).collect::<Vec<_>>());
        assert_eq!(replay.truncated_tail, Some(5));
        wal.append(&record(4)).unwrap();
        drop(wal);

        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk[4..8], VERSION.to_le_bytes(), "rewritten as the current version");
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(answers(&replay.frames), (1..=4).map(record).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_answer_payloads_and_unknown_kinds_are_torn() {
        let path = tmp("kinds");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&record(1)).unwrap();
        let end = wal.bytes() as usize;
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame(9, b"unknown kind"));
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.frames, vec![WalFrame::Answer(record(1))]);
        assert_eq!(replay.truncated_tail, Some((bytes.len() - end) as u64));

        let mut big = record(2);
        big.worker = "w".repeat(MAX_RECORD);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame(KIND_ANSWER, &big.encode()));
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.frames.len(), 1, "an answer payload past 64 KiB is garbage");
    }

    #[test]
    fn foreign_files_are_rejected_not_clobbered() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a WAL, but long enough").unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // The file is untouched.
        assert!(std::fs::read(&path).unwrap().starts_with(b"definitely"));
    }

    #[test]
    fn torn_header_restarts_the_file() {
        let path = tmp("torn-header");
        std::fs::write(&path, &MAGIC[..3]).unwrap();
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.truncated_tail, Some(3));
        wal.append(&record(1)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.frames, vec![WalFrame::Answer(record(1))]);
    }
}
