//! Length-prefixed JSON wire protocol.
//!
//! Every frame is a big-endian `u32` byte count followed by exactly that
//! many bytes of UTF-8 JSON. Requests and responses are JSON objects; the
//! payload schema reuses the hand-rolled [`Json`] value from `tpcds-obs`
//! so the wire format resolves no third-party crates either.
//!
//! Cell values cross the wire losslessly: integers, strings, booleans and
//! nulls map to their JSON counterparts, while the types JSON cannot carry
//! exactly are wrapped in single-key objects — `{"d":"1.50"}` for decimals
//! (display form, which round-trips mantissa and scale), `{"dt":2450815}`
//! for dates (the surrogate key) and `{"tm":34230}` for times (seconds
//! since midnight). Floats never appear: the engine computes in fixed
//! point precisely so results can be compared byte-for-byte.

use std::io::{Read, Write};

use tpcds_obs::json::Json;
use tpcds_types::{Date, Decimal, Time, Value};

/// Upper bound on a single frame, guarding the length prefix against
/// garbage (a client speaking HTTP at us would otherwise allocate "GET "
/// = 1.1 GB). 64 MiB comfortably fits any result set the bench produces.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

fn bad_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Writes one frame: length prefix, then the serialized document.
/// Returns the total bytes put on the wire (prefix + body) so the
/// server can account per-session traffic for `sys.sessions`.
pub fn write_frame(w: &mut impl Write, doc: &Json) -> std::io::Result<usize> {
    let body = doc.to_string();
    let len = u32::try_from(body.len()).map_err(|_| bad_data("frame over 4 GiB"))?;
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()?;
    Ok(4 + body.len())
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between requests); EOF mid-frame is an
/// error, as is a length prefix above [`MAX_FRAME`] or a body that is
/// not valid JSON.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Json>> {
    let mut prefix = [0u8; 4];
    match r.read(&mut prefix)? {
        0 => return Ok(None),
        4 => {}
        n => r.read_exact(&mut prefix[n..])?,
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body).map_err(|_| bad_data("frame is not UTF-8"))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| bad_data(format!("frame is not JSON: {e}")))
}

/// Encodes one cell for the wire.
pub fn encode_value(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Int(*i),
        Value::Bool(b) => Json::Bool(*b),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Decimal(d) => Json::Obj(vec![("d".into(), Json::Str(d.to_string()))]),
        Value::Date(d) => Json::Obj(vec![("dt".into(), Json::Int(d.date_sk()))]),
        Value::Time(t) => Json::Obj(vec![("tm".into(), Json::Int(t.seconds() as i64))]),
    }
}

/// Decodes one cell from the wire.
pub fn decode_value(j: &Json) -> Result<Value, String> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Str(s) => Ok(Value::str(s)),
        Json::Obj(_) => {
            if let Some(d) = j.get("d").and_then(Json::as_str) {
                let dec: Decimal = d.parse().map_err(|_| format!("bad decimal {d:?}"))?;
                Ok(Value::Decimal(dec))
            } else if let Some(sk) = j.get("dt").and_then(Json::as_i64) {
                Ok(Value::Date(Date::from_date_sk(sk)))
            } else if let Some(s) = j.get("tm").and_then(Json::as_i64) {
                let s = u32::try_from(s).map_err(|_| format!("bad time {s}"))?;
                Ok(Value::Time(Time::from_seconds(s)))
            } else {
                Err(format!("unknown wrapped value {j}"))
            }
        }
        other => Err(format!("unexpected cell {other}")),
    }
}

/// Encodes a result-set row.
pub fn encode_row(row: &[Value]) -> Json {
    Json::Arr(row.iter().map(encode_value).collect())
}

/// Decodes a result-set row.
pub fn decode_row(j: &Json) -> Result<Vec<Value>, String> {
    let cells = j
        .as_arr()
        .ok_or_else(|| format!("row is not an array: {j}"))?;
    cells.iter().map(decode_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let doc = Json::Obj(vec![
            ("type".into(), Json::Str("query".into())),
            (
                "sql".into(),
                Json::Str("select * from t where a = 'x\"y'".into()),
            ),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        write_frame(
            &mut buf,
            &Json::Obj(vec![("type".into(), Json::Str("ping".into()))]),
        )
        .unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some(doc));
        assert!(read_frame(&mut r).unwrap().is_some());
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF is None");
    }

    #[test]
    fn frames_of_any_size_round_trip() {
        for body_len in [1usize, 4 * 1024, 100 * 1024] {
            // `"xx…"` serializes to `body_len` bytes: the quotes count.
            let doc = match body_len {
                1 => Json::Int(7),
                n => Json::Str("x".repeat(n - 2)),
            };
            let mut buf = Vec::new();
            let n = write_frame(&mut buf, &doc).unwrap();
            assert_eq!(n, buf.len());
            assert_eq!(n, 4 + body_len);
            let mut r = buf.as_slice();
            assert_eq!(read_frame(&mut r).unwrap(), Some(doc));
            assert_eq!(read_frame(&mut r).unwrap(), None);
        }
        // An empty body is a length prefix alone; it is not JSON, so the
        // reader says so instead of waiting for more.
        let mut r = &0u32.to_be_bytes()[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocating() {
        // "GET " interpreted as a length prefix.
        let mut r = &b"GET / HTTP/1.1\r\n"[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_none() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::Int(7)).unwrap();
        buf.truncate(buf.len() - 1);
        let mut r = buf.as_slice();
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn every_value_variant_round_trips_losslessly() {
        let cells = vec![
            Value::Null,
            Value::Int(-9_007_199_254_740_993), // below -2^53: JSON floats would lose it
            Value::Bool(true),
            Value::str("it's \"quoted\"\nand multiline"),
            Value::Decimal(Decimal::new(-123_456, 2)),
            Value::Decimal(Decimal::new(500, 2)), // trailing zeros keep scale
            Value::Date(Date::from_date_sk(2_450_815)),
            Value::Time(Time::from_seconds(34_230)),
        ];
        let wire = encode_row(&cells);
        let text = wire.to_string();
        let back = decode_row(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), cells.len());
        for (a, b) in cells.iter().zip(&back) {
            assert_eq!(a.to_flat(), b.to_flat(), "{a:?} vs {b:?}");
            assert_eq!(a.data_type(), b.data_type(), "{a:?} vs {b:?}");
        }
        // Decimal scale survives, not just the printed value.
        let (Value::Decimal(a), Value::Decimal(b)) = (&cells[5], &back[5]) else {
            panic!()
        };
        assert_eq!(a.scale(), b.scale());
        assert_eq!(a.mantissa(), b.mantissa());
    }
}
