//! Mutation property of the two JSONL journal decoders,
//! `sinks::validate_jsonl` and `merge::merge`.
//!
//! The input is the journal of a small traced campaign. Each case
//! truncates it, replaces one character, splices two lines, or drops or
//! duplicates a line. Both decoders must return `Ok` or `Err` and never
//! panic. A mutation confined to the final line leaves the validated
//! prefix alone: a torn final line (cut short, or its braces broken)
//! reads as `truncated` with exactly the prefix's events, and `merge`
//! drops exactly that line.

use proptest::prelude::*;
use rescue_campaign::Campaign;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::{collapse, universe};
use rescue_netlist::generate;
use rescue_telemetry::journal::{self, Journal};
use rescue_telemetry::merge::merge;
use rescue_telemetry::sinks::validate_jsonl;
use rescue_telemetry::TelemetryConfig;
use std::sync::OnceLock;

/// The JSONL export of one traced, collapsed campaign on two workers.
fn clean_journal() -> &'static str {
    static JOURNAL: OnceLock<String> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let _exclusive = rescue_telemetry::exclusive();
        let net = generate::random_logic(6, 60, 3, 5);
        let faults = universe::stuck_at_universe(&net);
        let collapsed = collapse::collapse(&net, &faults);
        let patterns: Vec<Vec<bool>> = (0..100u32)
            .map(|p| {
                (0..6)
                    .map(|i| p.wrapping_mul(2654435761) >> (i + 3) & 1 == 1)
                    .collect()
            })
            .collect();
        let sim = FaultSimulator::new(&net);
        TelemetryConfig::on().install();
        let mark = journal::mark();
        let opts = PackedOptions::wide(2).with_collapsed(&collapsed).traced();
        sim.campaign_packed(&faults, &patterns, &Campaign::new(5, 2), opts);
        let text = Journal::take_since(mark).without_open_spans().to_jsonl();
        TelemetryConfig::off().install();
        text
    })
}

/// Characters a replacement draws from: JSON structure, digits, letters,
/// a multi-byte character and line breaks.
const PALETTE: [char; 12] = ['{', '}', '"', ':', ',', '0', '7', '-', 'x', 'é', ' ', '\n'];

/// Byte offset of char `k` of `s` (`s.len()` past the end).
fn char_at(s: &str, k: usize) -> usize {
    s.char_indices().nth(k).map_or(s.len(), |(i, _)| i)
}

/// One mutation of `text`, chosen and placed by `pick` (a value below
/// its argument), and whether it is confined to the final line and
/// tears it (cuts it short or breaks its braces).
fn mutate(text: &str, pick: &mut impl FnMut(usize) -> usize) -> (String, bool) {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let last = lines.len() - 1;
    let chars = text.chars().count();
    match pick(6) {
        // Truncate anywhere, or tear the final line.
        0 | 1 => {
            let first_of_last = text.len() - lines[last].len() - 1;
            let (at, torn) = if pick(2) == 0 {
                (char_at(text, pick(chars + 1)), false)
            } else {
                let len = lines[last].chars().count();
                (
                    first_of_last + char_at(&lines[last], 1 + pick(len - 1)),
                    true,
                )
            };
            (text[..at].to_string(), torn)
        }
        // Replace one character, anywhere or at a brace of the final line.
        2 => {
            let (line, k) = if pick(2) == 0 {
                let line = pick(lines.len());
                (line, pick(lines[line].chars().count()))
            } else {
                (last, [0, lines[last].chars().count() - 1][pick(2)])
            };
            let old = lines[line].chars().nth(k).expect("in range");
            let new = PALETTE[pick(PALETTE.len())];
            // Any other character at a brace, a blank or a line break
            // included, leaves the final line no JSON object.
            let brace = k == 0 || k + 1 == lines[line].chars().count();
            let torn = line == last && brace && old != new;
            let at = char_at(&lines[line], k);
            lines[line].replace_range(at..at + old.len_utf8(), &new.to_string());
            (lines.join("\n") + "\n", torn)
        }
        // Splice: a prefix of one line joined to a suffix of another.
        3 => {
            let (a, b) = (pick(lines.len()), pick(lines.len()));
            let cut_a = char_at(&lines[a], pick(lines[a].chars().count() + 1));
            let cut_b = char_at(&lines[b], pick(lines[b].chars().count() + 1));
            lines[a] = format!("{}{}", &lines[a][..cut_a], &lines[b][cut_b..]);
            (lines.join("\n") + "\n", false)
        }
        // Drop a line.
        4 => {
            lines.remove(pick(lines.len()));
            (lines.join("\n") + "\n", false)
        }
        // Duplicate a line.
        _ => {
            let line = pick(lines.len());
            lines.insert(line, lines[line].clone());
            (lines.join("\n") + "\n", false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every mutated journal decodes to `Ok` or `Err` in both decoders,
    /// and a torn final line reads as `truncated`.
    #[test]
    fn mutated_journals_decode_without_panicking(seed: u64) {
        let clean = clean_journal();
        let clean_check = validate_jsonl(clean).expect("the clean journal validates");
        prop_assert!(!clean_check.truncated && clean_check.events > 10);
        let clean_len = merge(&[(1, clean)]).expect("the clean journal merges").len();
        let mut s = seed | 1;
        let mut pick = |k: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % k.max(1) as u64) as usize
        };
        let (mutated, torn) = mutate(clean, &mut pick);
        let check = validate_jsonl(&mutated);
        let merged = merge(&[(1, &mutated)]);
        // A second, clean process must not change the verdict.
        prop_assert_eq!(merge(&[(2, clean), (1, &mutated)]).is_ok(), merged.is_ok());
        if torn {
            let check = check.expect("a torn tail validates");
            prop_assert!(check.truncated);
            prop_assert_eq!(check.events, clean_check.events - 1);
            prop_assert_eq!(merged.expect("a torn tail merges").len(), clean_len - 1);
        }
    }
}
