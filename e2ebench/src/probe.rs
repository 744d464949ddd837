//! The traced run's HTTP client: the same request `ServeClient::post_run`
//! sends, but the response's `x-imc-source` header (how the server obtained
//! the bytes) is kept, so latency can be split by source.

use std::io::{Read, Write};
use std::net::TcpStream;

/// POSTs `spec_json` to `/v1/run`; returns the source tag and the body.
pub fn post_run(addr: &str, spec_json: &str) -> Result<(String, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "POST /v1/run HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        spec_json.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(spec_json.as_bytes()))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<(String, String), String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines.next().unwrap_or_default();
    if status.split(' ').nth(1) != Some("200") {
        return Err(format!("server answered {status}"));
    }
    let mut source = String::new();
    let mut chunked = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "x-imc-source" => source = value.trim().to_owned(),
                "transfer-encoding" => chunked = value.to_ascii_lowercase().contains("chunked"),
                _ => {}
            }
        }
    }
    let body = &raw[split + 4..];
    let body = if chunked {
        dechunk(body)?
    } else {
        body.to_vec()
    };
    let body = String::from_utf8(body).map_err(|_| "response body is not UTF-8")?;
    Ok((source, body))
}

fn dechunk(mut data: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(data.len());
    loop {
        let line_end = data
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size")?;
        let size_text = std::str::from_utf8(&data[..line_end]).map_err(|_| "bad chunk size")?;
        let size_text = size_text.split(';').next().unwrap_or_default().trim();
        let size = usize::from_str_radix(size_text, 16).map_err(|_| "bad chunk size")?;
        data = &data[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if data.len() < size + 2 {
            return Err("truncated chunk".to_owned());
        }
        out.extend_from_slice(&data[..size]);
        data = &data[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_responses_decode_with_their_source() {
        let raw = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\nx-imc-source: cache\r\n\r\n\
                    5\r\nab\ncd\r\n3\r\nef\n\r\n0\r\n\r\n";
        let (source, body) = parse_response(raw).unwrap();
        assert_eq!(source, "cache");
        assert_eq!(body, "ab\ncdef\n");
        assert!(parse_response(b"HTTP/1.1 500 Oops\r\n\r\n{}").is_err());
        assert!(
            parse_response(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n9\r\nab")
                .is_err()
        );
    }
}
