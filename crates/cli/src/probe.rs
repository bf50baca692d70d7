//! `probe`: the hosbin deploy smoke check against a running server.

use crate::args::Args;
use crate::commands::CmdResult;
use hos_core::QuerySpec;

pub const PROBE_FLAGS: &[&str] = &["addr"];

/// `probe`: open a hosbin connection to a running `hos-serve` and
/// walk the read-only endpoints over framed binary — healthz, stats,
/// and (when the store is non-empty) one member query. Every reply
/// must decode; any error frame or framing fault is a hard failure.
/// Prints `hosbin probe: ok` on success, the deploy smoke contract.
pub fn cmd_probe(args: &Args) -> CmdResult {
    use hos_serve::codec;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("--addr: bad address {addr:?}"))?;
    let mut cli =
        tinyhttp::bin::BinClient::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut body = Vec::new();
    let mut walk = |req: &hos_serve::ApiRequest| -> Result<hos_serve::Json, String> {
        let op = codec::encode_bin_request(req, &mut body);
        let (rop, resp) = cli.call(op, &body).map_err(|e| format!("{addr}: {e}"))?;
        let (status, json) =
            codec::bin_reply_to_json(rop, &resp).map_err(|e| format!("{addr}: bad reply: {e}"))?;
        if status != 200 {
            return Err(format!("{addr}: status {status}: {json:?}"));
        }
        Ok(json)
    };
    walk(&hos_serve::ApiRequest::Healthz)?;
    let stats = walk(&hos_serve::ApiRequest::Stats)?;
    let live = stats
        .get("live")
        .and_then(hos_serve::Json::as_usize)
        .ok_or_else(|| format!("{addr}: stats reply lacks live"))?;
    let version = stats
        .get("version")
        .and_then(hos_serve::Json::as_usize)
        .ok_or_else(|| format!("{addr}: stats reply lacks version"))?;
    let mut queried = 0usize;
    if live > 0 {
        let reply = walk(&hos_serve::ApiRequest::Query(vec![QuerySpec::Member(0)]))?;
        queried = reply
            .get("results")
            .and_then(|r| r.as_array().map(<[hos_serve::Json]>::len))
            .ok_or_else(|| format!("{addr}: query reply lacks results"))?;
    }
    println!("hosbin probe: ok (live={live} version={version} queried={queried})");
    Ok(())
}
