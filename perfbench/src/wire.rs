//! The load generator's side of the wire: one job per connection, timed
//! from the client, reply bytes hashed and never parsed.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use gencache_serve::RetryPolicy;

use crate::digest::{classify_reply, ReplyKind, ResultDigests};
use crate::inputs::Job;

/// A reply slower than this counts as a failed job.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Where one attempt's time went, as the client sees it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    /// Connect to the last upload byte flushed.
    pub upload: Duration,
    /// Last upload byte to the first reply byte.
    pub wait: Duration,
    /// First to last reply byte.
    pub reply: Duration,
}

/// One job's outcome after busy retries.
#[derive(Debug, Clone)]
pub struct Submitted {
    pub kind: ReplyKind,
    /// First attempt's connect to the last reply byte of the final one.
    pub latency: Duration,
    /// The final attempt's split.
    pub split: Split,
    pub busy_retries: u32,
}

/// Uploads `job` to `addr` and reads the reply line into `buf`
/// (reused across calls: the fleet reply is megabytes).
fn attempt(addr: &str, job: &Job, buf: &mut Vec<u8>) -> io::Result<(ReplyKind, Split)> {
    let started = Instant::now();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut writer = BufWriter::with_capacity(1 << 16, stream.try_clone()?);
    let sent = (|| {
        writer.write_all(job.header.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.write_all(&job.export.bytes)?;
        writer.write_all(job.end.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    })();
    match sent {
        Ok(()) => {}
        // The server may answer early (busy, error) and close its side;
        // its reply is still there to read.
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
            ) => {}
        Err(e) => return Err(e),
    }
    drop(writer);
    stream.shutdown(Shutdown::Write).ok();
    let uploaded = Instant::now();
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    if reader.fill_buf()?.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed without a reply",
        ));
    }
    let first_byte = Instant::now();
    buf.clear();
    reader.read_until(b'\n', buf)?;
    let done = Instant::now();
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    let split = Split {
        upload: uploaded - started,
        wait: first_byte - uploaded,
        reply: done - first_byte,
    };
    Ok((classify_reply(buf), split))
}

/// Submits `job`, retrying `busy` replies under the client's default
/// [`RetryPolicy`].
///
/// # Errors
///
/// Returns connection and read failures (including the read timeout).
pub fn submit(addr: &str, job: &Job, buf: &mut Vec<u8>) -> io::Result<Submitted> {
    let policy = RetryPolicy::default();
    let started = Instant::now();
    let mut busy_retries = 0u32;
    loop {
        let (kind, split) = attempt(addr, job, buf)?;
        if kind == ReplyKind::Busy && busy_retries < policy.retries {
            std::thread::sleep(policy.delay(busy_retries));
            busy_retries += 1;
            continue;
        }
        return Ok(Submitted {
            kind,
            latency: started.elapsed(),
            split,
            busy_retries,
        });
    }
}

/// Why a job failed, or `None` when its reply is the reference's.
pub fn check(outcome: &io::Result<Submitted>, expected: &ResultDigests) -> Option<String> {
    match outcome {
        Err(e) => Some(format!("connection: {e}")),
        Ok(s) => match &s.kind {
            ReplyKind::Result(got) if got == expected => None,
            ReplyKind::Result(got) => Some(format!(
                "reply differs from the reference: doc {} frame {}, expected doc {} frame {}",
                got.doc, got.frame, expected.doc, expected.frame
            )),
            ReplyKind::Busy => Some(format!("still busy after {} retries", s.busy_retries)),
            ReplyKind::Error(message) => Some(message.clone()),
        },
    }
}
