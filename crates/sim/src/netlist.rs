//! SPICE-style netlist parsing.
//!
//! The paper's baseline is "a CMOS comparator described at SPICE level";
//! this module accepts the classic card format so circuits can be given as
//! text:
//!
//! ```text
//! * title line (ignored)
//! V1 in 0 DC 5
//! VIN in 0 SIN(0 1 1k)
//! VCK ck 0 PULSE(0 5 1u 1n 1n 2u 5u)
//! R1 in out 10k
//! C1 out 0 1u
//! L1 a b 1m
//! D1 a 0 DMOD
//! M1 d g s b NMOD W=10u L=1u
//! E1 out 0 a b 2.0        * VCVS
//! G1 out 0 a b 1m         * VCCS
//! F1 out 0 V1 5           * CCCS
//! H1 out 0 V1 100         * CCVS
//! S1 a b c 0 VT=0.5 RON=1 ROFF=1e9
//! .model DMOD D IS=1e-14 N=1.0
//! .model NMOD NMOS VTO=0.8 KP=60u LAMBDA=0.03
//! .end
//! ```
//!
//! Engineering suffixes `f p n u m k meg g t` are understood, `.model`
//! cards may appear anywhere, `+` continues the previous card, and
//! everything after `;` or `$` on a line is a comment.

use crate::circuit::Circuit;
use crate::devices::diode::DiodeParams;
use crate::devices::mosfet::{MosType, MosfetParams};
use crate::devices::SourceWave;
use crate::SimError;
use std::collections::HashMap;

/// Parses a numeric field with SPICE engineering suffixes.
///
/// # Errors
///
/// [`SimError::BadAnalysis`] on malformed numbers.
pub fn parse_value(text: &str) -> Result<f64, SimError> {
    let lower = text.to_ascii_lowercase();
    let (mantissa, scale): (&str, f64) = if let Some(stripped) = lower.strip_suffix("meg") {
        (stripped, 1e6)
    } else if let Some(stripped) = lower.strip_suffix("mil") {
        (stripped, 25.4e-6)
    } else {
        match lower.as_bytes().last() {
            Some(b'f') => (&lower[..lower.len() - 1], 1e-15),
            Some(b'p') => (&lower[..lower.len() - 1], 1e-12),
            Some(b'n') => (&lower[..lower.len() - 1], 1e-9),
            Some(b'u') => (&lower[..lower.len() - 1], 1e-6),
            Some(b'm') => (&lower[..lower.len() - 1], 1e-3),
            Some(b'k') => (&lower[..lower.len() - 1], 1e3),
            Some(b'g') => (&lower[..lower.len() - 1], 1e9),
            Some(b't') => (&lower[..lower.len() - 1], 1e12),
            _ => (lower.as_str(), 1.0),
        }
    };
    mantissa
        .parse::<f64>()
        .map(|v| v * scale)
        .map_err(|_| SimError::BadAnalysis(format!("malformed number '{text}'")))
}

#[derive(Debug, Clone)]
enum ModelCard {
    Diode(DiodeParams),
    Mos(MosType, MosfetParams),
}

/// Key=value pairs of a card tail.
fn parse_kv(fields: &[&str]) -> Result<HashMap<String, f64>, SimError> {
    let mut out = HashMap::new();
    for f in fields {
        let Some((k, v)) = f.split_once('=') else {
            return Err(SimError::BadAnalysis(format!(
                "expected key=value, found '{f}'"
            )));
        };
        out.insert(k.to_ascii_lowercase(), parse_value(v)?);
    }
    Ok(out)
}

fn parse_model_card(fields: &[&str]) -> Result<(String, ModelCard), SimError> {
    // .model NAME TYPE key=value...
    if fields.len() < 3 {
        return Err(SimError::BadAnalysis(
            ".model needs a name and a type".into(),
        ));
    }
    let name = fields[1].to_ascii_uppercase();
    let kind = fields[2].to_ascii_uppercase();
    let kv = parse_kv(&fields[3..])?;
    let card = match kind.as_str() {
        "D" => {
            let mut p = DiodeParams::default();
            if let Some(v) = kv.get("is") {
                p.is = *v;
            }
            if let Some(v) = kv.get("n") {
                p.n = *v;
            }
            if let Some(v) = kv.get("cj0") {
                p.cj0 = *v;
            }
            ModelCard::Diode(p)
        }
        "NMOS" | "PMOS" => {
            let mut p = MosfetParams::default();
            if kind == "PMOS" {
                p.vto = -p.vto;
            }
            for (key, field) in [
                ("vto", 0usize),
                ("kp", 1),
                ("lambda", 2),
                ("gamma", 3),
                ("phi", 4),
                ("cgs", 5),
                ("cgd", 6),
                ("cgb", 7),
            ] {
                if let Some(v) = kv.get(key) {
                    match field {
                        0 => p.vto = *v,
                        1 => p.kp = *v,
                        2 => p.lambda = *v,
                        3 => p.gamma = *v,
                        4 => p.phi = *v,
                        5 => p.cgs = *v,
                        6 => p.cgd = *v,
                        _ => p.cgb = *v,
                    }
                }
            }
            let t = if kind == "NMOS" {
                MosType::Nmos
            } else {
                MosType::Pmos
            };
            ModelCard::Mos(t, p)
        }
        other => {
            return Err(SimError::BadAnalysis(format!(
                "unsupported .model type '{other}'"
            )))
        }
    };
    Ok((name, card))
}

/// Parses a source specification tail: `DC v`, bare value, `SIN(...)` or
/// `PULSE(...)`.
fn parse_source(fields: &[&str]) -> Result<SourceWave, SimError> {
    if fields.is_empty() {
        return Ok(SourceWave::dc(0.0));
    }
    let joined = fields.join(" ");
    let upper = joined.to_ascii_uppercase();
    let args_of = |name: &str| -> Result<Vec<f64>, SimError> {
        let start = upper.find('(').ok_or_else(|| {
            SimError::BadAnalysis(format!("{name} needs parenthesized arguments"))
        })?;
        let end = upper
            .rfind(')')
            .ok_or_else(|| SimError::BadAnalysis(format!("unterminated {name} argument list")))?;
        joined[start + 1..end]
            .split_whitespace()
            .map(parse_value)
            .collect()
    };
    if upper.starts_with("SIN") {
        let a = args_of("SIN")?;
        if a.len() < 3 {
            return Err(SimError::BadAnalysis(
                "SIN needs at least (offset ampl freq)".into(),
            ));
        }
        return Ok(SourceWave::Sine {
            offset: a[0],
            ampl: a[1],
            freq: a[2],
            delay: a.get(3).copied().unwrap_or(0.0),
            phase: a.get(4).copied().unwrap_or(0.0),
        });
    }
    if upper.starts_with("PULSE") {
        let a = args_of("PULSE")?;
        if a.len() < 6 {
            return Err(SimError::BadAnalysis(
                "PULSE needs (v1 v2 delay rise fall width [period])".into(),
            ));
        }
        return Ok(SourceWave::pulse(
            a[0],
            a[1],
            a[2],
            a[3],
            a[4],
            a[5],
            a.get(6).copied().unwrap_or(0.0),
        ));
    }
    if upper.starts_with("PWL") {
        let a = args_of("PWL")?;
        if a.len() % 2 != 0 {
            return Err(SimError::BadAnalysis("PWL needs time/value pairs".into()));
        }
        let pts = a.chunks(2).map(|c| (c[0], c[1])).collect();
        return Ok(SourceWave::Pwl(pts));
    }
    // `DC value` or a bare value.
    let value_field = if upper.starts_with("DC") {
        fields
            .get(1)
            .copied()
            .ok_or_else(|| SimError::BadAnalysis("DC needs a value".into()))?
    } else {
        fields[0]
    };
    Ok(SourceWave::dc(parse_value(value_field)?))
}

/// Prefixes `e` with its netlist line. A [`SimError::BadAnalysis`] keeps
/// its bare message so the result reads `bad analysis spec: line N: …`
/// with the prefix once; other errors keep their full text.
fn at_line(line_no: usize, e: SimError) -> SimError {
    let msg = match e {
        SimError::BadAnalysis(msg) => msg,
        other => other.to_string(),
    };
    SimError::BadAnalysis(format!("line {line_no}: {msg}"))
}

/// Parses a complete netlist into a [`Circuit`]. The first line is the
/// title (ignored), SPICE-style.
///
/// # Errors
///
/// [`SimError::BadAnalysis`] with the offending line number, or device
/// construction errors.
pub fn parse_netlist(src: &str) -> Result<Circuit, SimError> {
    // Join continuation lines first.
    let mut cards: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = match raw.find([';', '$']) {
            Some(p) => &raw[..p],
            None => raw,
        };
        let trimmed = line.trim();
        if idx == 0 || trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            if let Some(last) = cards.last_mut() {
                last.1.push(' ');
                last.1.push_str(cont.trim());
                continue;
            }
        }
        cards.push((idx + 1, trimmed.to_string()));
    }

    // First pass: models.
    let mut models: HashMap<String, ModelCard> = HashMap::new();
    for (line_no, card) in &cards {
        let fields: Vec<&str> = card.split_whitespace().collect();
        if fields[0].eq_ignore_ascii_case(".model") {
            let (name, model) = parse_model_card(&fields).map_err(|e| at_line(*line_no, e))?;
            models.insert(name, model);
        }
    }

    let mut ckt = Circuit::new();
    let err_at = |line_no: usize, msg: String| at_line(line_no, SimError::BadAnalysis(msg));
    for (line_no, card) in &cards {
        let fields: Vec<&str> = card.split_whitespace().collect();
        let head = fields[0];
        if head.starts_with('.') {
            match head.to_ascii_lowercase().as_str() {
                ".model" | ".end" => continue,
                other => {
                    return Err(err_at(
                        *line_no,
                        format!("unsupported control card '{other}'"),
                    ))
                }
            }
        }
        let name = head.to_string();
        let kind = head
            .chars()
            .next()
            .map(|c| c.to_ascii_uppercase())
            .unwrap_or(' ');
        let need = |n: usize| -> Result<(), SimError> {
            if fields.len() < n + 1 {
                Err(err_at(
                    *line_no,
                    format!("{name} needs at least {n} fields"),
                ))
            } else {
                Ok(())
            }
        };
        let result: Result<(), SimError> = (|| match kind {
            'R' => {
                need(3)?;
                let a = ckt.node(fields[1]);
                let b = ckt.node(fields[2]);
                ckt.add_resistor(&name, a, b, parse_value(fields[3])?)
            }
            'C' => {
                need(3)?;
                let a = ckt.node(fields[1]);
                let b = ckt.node(fields[2]);
                ckt.add_capacitor(&name, a, b, parse_value(fields[3])?);
                Ok(())
            }
            'L' => {
                need(3)?;
                let a = ckt.node(fields[1]);
                let b = ckt.node(fields[2]);
                ckt.add_inductor(&name, a, b, parse_value(fields[3])?)
            }
            'V' => {
                need(2)?;
                let p = ckt.node(fields[1]);
                let m = ckt.node(fields[2]);
                let wave = parse_source(&fields[3..])?;
                ckt.add_vsource(&name, p, m, wave);
                Ok(())
            }
            'I' => {
                need(2)?;
                let p = ckt.node(fields[1]);
                let m = ckt.node(fields[2]);
                let wave = parse_source(&fields[3..])?;
                ckt.add_isource(&name, p, m, wave);
                Ok(())
            }
            'E' => {
                need(5)?;
                let op = ckt.node(fields[1]);
                let om = ckt.node(fields[2]);
                let cp = ckt.node(fields[3]);
                let cm = ckt.node(fields[4]);
                ckt.add_vcvs(&name, op, om, cp, cm, parse_value(fields[5])?);
                Ok(())
            }
            'G' => {
                need(5)?;
                let op = ckt.node(fields[1]);
                let om = ckt.node(fields[2]);
                let cp = ckt.node(fields[3]);
                let cm = ckt.node(fields[4]);
                ckt.add_vccs(&name, op, om, cp, cm, parse_value(fields[5])?);
                Ok(())
            }
            'F' => {
                need(4)?;
                let op = ckt.node(fields[1]);
                let om = ckt.node(fields[2]);
                ckt.add_cccs(&name, op, om, fields[3], parse_value(fields[4])?)
            }
            'H' => {
                need(4)?;
                let op = ckt.node(fields[1]);
                let om = ckt.node(fields[2]);
                ckt.add_ccvs(&name, op, om, fields[3], parse_value(fields[4])?)
            }
            'D' => {
                need(3)?;
                let a = ckt.node(fields[1]);
                let c = ckt.node(fields[2]);
                let model = models.get(&fields[3].to_ascii_uppercase()).ok_or_else(|| {
                    SimError::BadAnalysis(format!("unknown model '{}'", fields[3]))
                })?;
                let ModelCard::Diode(p) = model else {
                    return Err(SimError::BadAnalysis(format!(
                        "'{}' is not a diode model",
                        fields[3]
                    )));
                };
                ckt.add_diode(&name, a, c, *p);
                Ok(())
            }
            'M' => {
                need(5)?;
                let d = ckt.node(fields[1]);
                let g = ckt.node(fields[2]);
                let s = ckt.node(fields[3]);
                let b = ckt.node(fields[4]);
                let model = models.get(&fields[5].to_ascii_uppercase()).ok_or_else(|| {
                    SimError::BadAnalysis(format!("unknown model '{}'", fields[5]))
                })?;
                let ModelCard::Mos(t, base) = model else {
                    return Err(SimError::BadAnalysis(format!(
                        "'{}' is not a MOS model",
                        fields[5]
                    )));
                };
                let mut p = *base;
                let kv = parse_kv(&fields[6..])?;
                if let Some(v) = kv.get("w") {
                    p.w = *v;
                }
                if let Some(v) = kv.get("l") {
                    p.l = *v;
                }
                ckt.add_mosfet(&name, *t, d, g, s, b, p)
            }
            'S' => {
                need(4)?;
                let a = ckt.node(fields[1]);
                let b = ckt.node(fields[2]);
                let cp = ckt.node(fields[3]);
                let cm = ckt.node(fields[4]);
                let kv = parse_kv(&fields[5..])?;
                ckt.add_vswitch(
                    &name,
                    a,
                    b,
                    cp,
                    cm,
                    kv.get("vt").copied().unwrap_or(0.0),
                    kv.get("ron").copied().unwrap_or(1.0),
                    kv.get("roff").copied().unwrap_or(1.0e9),
                );
                Ok(())
            }
            other => Err(SimError::BadAnalysis(format!(
                "unknown element type '{other}'"
            ))),
        })();
        result.map_err(|e| at_line(*line_no, e))?;
    }
    Ok(ckt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::tran::TranSpec;

    #[test]
    fn engineering_suffixes() {
        let close = |text: &str, expect: f64| {
            let v = parse_value(text).unwrap();
            assert!(
                ((v - expect) / expect).abs() < 1e-12,
                "{text}: {v} vs {expect}"
            );
        };
        close("10k", 10.0e3);
        close("1meg", 1.0e6);
        close("5p", 5.0e-12);
        close("2.5u", 2.5e-6);
        close("3m", 3.0e-3);
        close("1e-3", 1.0e-3);
        close("-4.7n", -4.7e-9);
        assert!(parse_value("abc").is_err());
    }

    #[test]
    fn divider_netlist() {
        let src = "\
divider test
V1 in 0 DC 9
R1 in out 2k
R2 out 0 1k
.end
";
        let mut ckt = parse_netlist(src).unwrap();
        let out = ckt.find_node("out").unwrap();
        let op = ckt.op().unwrap();
        assert!((op.voltage(out) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn continuation_and_comments() {
        let src = "\
title
V1 in 0 $ supply
+ DC 5
* a comment line
R1 in 0 1k ; load
";
        let mut ckt = parse_netlist(src).unwrap();
        let op = ckt.op().unwrap();
        let i = op.current_through(&ckt, "V1").unwrap();
        assert!((i + 5.0e-3).abs() < 1e-9);
    }

    #[test]
    fn sources_parse() {
        let src = "\
t
V1 a 0 SIN(0 1 1k)
V2 b 0 PULSE(0 5 1u 1n 1n 2u 5u)
V3 c 0 PWL(0 0 1m 1)
I1 d 0 DC 1m
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
";
        let ckt = parse_netlist(src).unwrap();
        assert_eq!(ckt.n_devices(), 8);
    }

    #[test]
    fn diode_and_mos_models() {
        let src = "\
t
.model DX D IS=1e-12 N=1.2
.model MN NMOS VTO=0.7 KP=100u LAMBDA=0.02
V1 in 0 DC 3
R1 in a 1k
D1 a 0 DX
M1 out in 0 0 MN W=100u L=1u
R2 out 0 10k
V2 vdd 0 DC 5
R3 vdd out 1k
";
        let mut ckt = parse_netlist(src).unwrap();
        let op = ckt.op().unwrap();
        let a = ckt.find_node("a").unwrap();
        // Diode with N=1.2 drops roughly 0.6-0.9 V.
        let vd = op.voltage(a);
        assert!((0.4..1.0).contains(&vd), "vd = {vd}");
        // The NMOS with vgs = 3 V is on: out pulled below the divider value.
        let out = ckt.find_node("out").unwrap();
        assert!(op.voltage(out) < 1.0);
    }

    #[test]
    fn controlled_sources() {
        let src = "\
t
V1 in 0 DC 1
E1 e 0 in 0 2
R1 e 0 1k
G1 0 g in 0 1m
R2 g 0 1k
F1 0 f V1 2
R3 f 0 1k
H1 h 0 V1 500
R4 h 0 1k
";
        let mut ckt = parse_netlist(src).unwrap();
        let op = ckt.op().unwrap();
        assert!((op.voltage(ckt.find_node("e").unwrap()) - 2.0).abs() < 1e-9);
        assert!((op.voltage(ckt.find_node("g").unwrap()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rc_transient_from_netlist() {
        let src = "\
t
V1 in 0 PULSE(0 1 0 1n 1n 1 0)
R1 in out 1k
C1 out 0 1u
";
        let mut ckt = parse_netlist(src).unwrap();
        let r = ckt.tran(&TranSpec::new(5e-3)).unwrap();
        let out = ckt.find_node("out").unwrap();
        let w = r.voltage_waveform(out).unwrap();
        assert!((w.values().last().unwrap() - 0.9932).abs() < 5e-3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_netlist("t\nR1 a 0 abc\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_netlist("t\nQ1 a b c\n").unwrap_err();
        assert!(err.to_string().contains("unknown element"), "{err}");
        let err = parse_netlist("t\nD1 a 0 NOPE\n").unwrap_err();
        assert!(err.to_string().contains("unknown model"), "{err}");
        let err = parse_netlist("t\n.tran 1u 1m\n").unwrap_err();
        assert!(
            err.to_string().contains("unsupported control card"),
            "{err}"
        );
        // The line prefix wraps the inner message once.
        let err = parse_netlist("t\nR1 a 0 1x2k\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad analysis spec: line 2: malformed number '1x2k'"
        );
        let err = parse_netlist("t\n.model QX NPN BF=100\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad analysis spec: line 2: unsupported .model type 'NPN'"
        );
        let err = parse_netlist("t\n.model DX D IS=1e-14\nR1 a 0 -1k\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad analysis spec: line 3: bad parameter on R1: resistance must be positive and finite, got -1000"
        );
    }

    #[test]
    fn switch_card() {
        let src = "\
t
V1 c 0 DC 5
V2 in 0 DC 1
S1 in out c 0 VT=0.5 RON=10 ROFF=1e9
R1 out 0 90
";
        let mut ckt = parse_netlist(src).unwrap();
        let op = ckt.op().unwrap();
        let out = ckt.find_node("out").unwrap();
        // Closed switch: divider 90/(10+90).
        assert!((op.voltage(out) - 0.9).abs() < 1e-3);
    }
}
