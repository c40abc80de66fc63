//! The served program: one `gencache-serve` daemon, or a
//! `gencache-shard` router over two one-worker shards on pinned ports.

use std::path::Path;

use gencache_serve::{Client, Reply};

use crate::procs::Daemon;

/// Shard addresses, pinned: the router's hash ring is keyed by
/// `"{addr}#{replica}"`, so ephemeral ports would move benchmarks between
/// shards from run to run.
pub const SHARDS: [&str; 2] = ["127.0.0.1:47101", "127.0.0.1:47103"];

/// Where the ring puts the fleet-grid benchmarks on [`SHARDS`]: two per
/// shard. (On `:47101`/`:47102` all four land on one shard.)
pub const PLACEMENT: [(&str, usize); 4] = [("word", 1), ("gcc", 0), ("excel", 1), ("phaseflip", 0)];

/// Running daemons; the last one is the front door. Dropping the
/// service stops every process.
#[derive(Debug)]
pub struct Service {
    daemons: Vec<Daemon>,
    /// One line saying which shard serves which benchmark, for a fleet.
    pub placement: Option<String>,
}

impl Service {
    /// A single daemon with its default workers.
    ///
    /// # Errors
    ///
    /// Fails when the daemon does not start.
    pub fn single(bins: &Path) -> Result<Service, String> {
        let daemon = Daemon::start(
            &bins.join("gencache-serve"),
            &["--addr", "127.0.0.1:0", "--log", "none"],
        )?;
        Ok(Service {
            daemons: vec![daemon],
            placement: None,
        })
    }

    /// Two one-worker shards on [`SHARDS`] behind a router, with the
    /// placement checked against [`PLACEMENT`] before anything is timed.
    ///
    /// # Errors
    ///
    /// Fails when a daemon does not start or the placement differs.
    pub fn fleet(bins: &Path) -> Result<Service, String> {
        let mut daemons = Vec::new();
        for addr in SHARDS {
            daemons.push(Daemon::start(
                &bins.join("gencache-serve"),
                &["--addr", addr, "--workers", "1", "--log", "none"],
            )?);
        }
        let mut args = vec!["--addr", "127.0.0.1:0", "--log", "none"];
        for addr in SHARDS {
            args.extend(["--backend", addr]);
        }
        daemons.push(Daemon::start(&bins.join("gencache-shard"), &args)?);
        let router = Client::new(daemons[2].addr.clone());
        let mut routes = Vec::new();
        for (bench, _) in PLACEMENT {
            match router.route(bench) {
                Ok(Reply::Route { addr, .. }) => routes.push((bench.to_string(), addr)),
                other => return Err(format!("route {bench}: {other:?}")),
            }
        }
        let placement = check_placement(&routes)?;
        Ok(Service {
            daemons,
            placement: Some(placement),
        })
    }

    /// The address jobs go to.
    pub fn addr(&self) -> &str {
        &self.daemons.last().expect("a service has a daemon").addr
    }

    /// Peak RSS of every process in MiB, with the address it serves.
    ///
    /// # Errors
    ///
    /// As [`Daemon::peak_rss_kib`].
    pub fn peak_rss_mb(&self) -> Result<Vec<(String, f64)>, String> {
        self.daemons
            .iter()
            .map(|d| Ok((d.addr.clone(), d.peak_rss_kib()? as f64 / 1024.0)))
            .collect()
    }
}

/// Checks the router's answers `(benchmark, shard address)` against
/// [`PLACEMENT`] and returns the placement as one line.
///
/// # Errors
///
/// Fails when a benchmark sits on another shard than pinned, which is
/// how a collapsed (all on one shard) placement shows.
pub fn check_placement(routes: &[(String, String)]) -> Result<String, String> {
    let line = routes
        .iter()
        .map(|(bench, addr)| format!("{bench}->{addr}"))
        .collect::<Vec<_>>()
        .join(" ");
    let expected: Vec<(String, String)> = PLACEMENT
        .iter()
        .map(|&(bench, shard)| (bench.to_string(), SHARDS[shard].to_string()))
        .collect();
    if routes != expected.as_slice() {
        return Err(format!(
            "fleet placement {line} is not the pinned 2/2 split; timings would not compare"
        ));
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routes(shards: [usize; 4]) -> Vec<(String, String)> {
        PLACEMENT
            .iter()
            .zip(shards)
            .map(|(&(bench, _), s)| (bench.to_string(), SHARDS[s].to_string()))
            .collect()
    }

    #[test]
    fn pinned_placement_splits_two_and_two() {
        for shard in 0..SHARDS.len() {
            assert_eq!(PLACEMENT.iter().filter(|(_, s)| *s == shard).count(), 2);
        }
        let line = check_placement(&routes([1, 0, 1, 0])).expect("pinned placement");
        assert!(line.starts_with("word->127.0.0.1:47103 gcc->127.0.0.1:47101"));
    }

    #[test]
    fn collapsed_placement_is_rejected() {
        for shard in 0..SHARDS.len() {
            let err = check_placement(&routes([shard; 4])).unwrap_err();
            assert!(err.contains("not the pinned 2/2 split"), "{err}");
        }
    }
}
