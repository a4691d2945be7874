//! Server-side kernel resolution: the same built-in workload names the
//! `hca` CLI accepts, so a client can name a kernel instead of shipping
//! its DDG over the wire.

use hca_ddg::Ddg;

/// Resolve a kernel name to `(name, ddg)`.
///
/// Accepted names: the four Table-1 kernels (`fir2dim`, `idcthor`,
/// `mpeg2inter`, `h264deblocking`), the DSPstone set (`fir8`, `biquad`,
/// `matvec8`, `dot_product`, `n_real_updates`, `convolution`, `lms`,
/// `matrix1x3`), and seeded synthetics as `synthetic:<nodes>[:<seed>]`
/// (seed defaults to `0xB5E7`, decimal or `0x…` hex).
pub fn resolve_kernel(name: &str) -> Result<(String, Ddg), String> {
    if let Some(ddg) = hca_kernels::builtin(name) {
        return Ok((name.to_string(), ddg));
    }
    if let Some(rest) = name.strip_prefix("synthetic:") {
        let (nodes_str, seed_str) = match rest.split_once(':') {
            Some((n, s)) => (n, Some(s)),
            None => (rest, None),
        };
        let nodes: usize = nodes_str
            .parse()
            .map_err(|_| format!("bad synthetic node count `{nodes_str}`"))?;
        if nodes == 0 || nodes > 1 << 16 {
            return Err(format!("synthetic node count {nodes} out of range"));
        }
        let seed = match seed_str {
            None => 0xB5E7,
            Some(s) => match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => {
                    u64::from_str_radix(hex, 16).map_err(|_| format!("bad synthetic seed `{s}`"))?
                }
                None => s.parse().map_err(|_| format!("bad synthetic seed `{s}`"))?,
            },
        };
        let (_, ddg) = hca_kernels::synthetic::scaling_family(&[nodes], seed)
            .pop()
            .ok_or("empty synthetic family")?;
        return Ok((name.to_string(), ddg));
    }
    Err(format!(
        "unknown kernel `{name}` (try a Table-1 name, a DSPstone name, or synthetic:<nodes>[:<seed>])"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_and_dspstone_resolve() {
        for name in [
            "fir2dim",
            "idcthor",
            "mpeg2inter",
            "h264deblocking",
            "biquad",
        ] {
            let (n, ddg) = resolve_kernel(name).unwrap();
            assert_eq!(n, name);
            assert!(ddg.num_nodes() > 0, "{name} resolved empty");
        }
    }

    #[test]
    fn synthetic_specs_resolve_deterministically() {
        let (_, a) = resolve_kernel("synthetic:64").unwrap();
        let (_, b) = resolve_kernel("synthetic:64:0xB5E7").unwrap();
        let (_, c) = resolve_kernel("synthetic:64:7").unwrap();
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "default seed must equal explicit 0xB5E7"
        );
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap(),
            "different seeds must differ"
        );
    }

    #[test]
    fn bad_names_are_rejected() {
        assert!(resolve_kernel("nope").is_err());
        assert!(resolve_kernel("synthetic:").is_err());
        assert!(resolve_kernel("synthetic:0").is_err());
        assert!(resolve_kernel("synthetic:10:zzz").is_err());
    }
}
