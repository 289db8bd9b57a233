//! Small, testable parsers for `expdriver`'s command-line grammar.
//!
//! The binary keeps its flag loop, but anything with validation rules worth
//! testing lives here so the rules are enforced (and documented) in one
//! place rather than re-derived per subcommand.

/// Parse a `--shard <i>/<n>` value into `(index, count)`.
///
/// Shards count from zero, so `index` must be strictly below `count` and
/// `count` must be at least 1. Anything else — `3/3`, `0/0`, negative or
/// non-numeric pieces, a missing `/` — is rejected with a message that
/// restates the rule.
pub fn parse_shard(text: &str) -> Result<(usize, usize), String> {
    let Some((index_text, count_text)) = text.split_once('/') else {
        return Err(format!(
            "--shard must be '<i>/<n>' (e.g. '0/4'), got '{text}'"
        ));
    };
    let index: usize = index_text
        .trim()
        .parse()
        .map_err(|_| format!("--shard index '{index_text}' is not a non-negative integer"))?;
    let count: usize = count_text
        .trim()
        .parse()
        .map_err(|_| format!("--shard count '{count_text}' is not a positive integer"))?;
    if count == 0 {
        return Err(format!(
            "--shard count must be at least 1, got '{text}' (there is no 0-way sharding)"
        ));
    }
    if index >= count {
        return Err(format!(
            "--shard index must be below the count (shards count from zero), got '{text}': \
             valid indices for /{count} are 0..={}",
            count - 1
        ));
    }
    Ok((index, count))
}

/// Parse a `--chunk <n>` value: jobs per streamed block, at least 1.
pub fn parse_chunk(text: &str) -> Result<usize, String> {
    match text.trim().parse::<usize>() {
        Ok(0) => Err("--chunk must be at least 1 (jobs per streamed block)".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--chunk '{text}' is not a positive integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_accepts_valid_specs() {
        assert_eq!(parse_shard("0/1"), Ok((0, 1)));
        assert_eq!(parse_shard("0/4"), Ok((0, 4)));
        assert_eq!(parse_shard("3/4"), Ok((3, 4)));
        assert_eq!(parse_shard(" 2 / 8 "), Ok((2, 8)));
    }

    #[test]
    fn shard_rejects_index_at_or_above_count() {
        let err = parse_shard("4/4").unwrap_err();
        assert!(err.contains("count from zero"), "unhelpful error: {err}");
        assert!(
            err.contains("0..=3"),
            "error should list valid range: {err}"
        );
        assert!(parse_shard("7/2").is_err());
    }

    #[test]
    fn shard_rejects_zero_count() {
        let err = parse_shard("0/0").unwrap_err();
        assert!(err.contains("at least 1"), "unhelpful error: {err}");
    }

    #[test]
    fn shard_rejects_malformed_specs() {
        for bad in ["", "3", "/", "a/4", "1/b", "-1/4", "1/-4", "1//4"] {
            assert!(parse_shard(bad).is_err(), "'{bad}' must not parse");
        }
    }

    #[test]
    fn chunk_requires_a_positive_count() {
        assert_eq!(parse_chunk("64"), Ok(64));
        assert_eq!(parse_chunk(" 1 "), Ok(1));
        let err = parse_chunk("0").unwrap_err();
        assert!(err.contains("at least 1"), "unhelpful error: {err}");
        assert!(parse_chunk("big").is_err());
        assert!(parse_chunk("-4").is_err());
    }
}
