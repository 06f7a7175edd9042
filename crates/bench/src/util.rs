//! The figure runner's one flag: `--scale full|quick`.

use crate::scale::RunScale;

/// The `--scale` preset on the process command line, or `default`.
///
/// # Panics
/// Panics (with a usage hint) on anything else — `all_experiments` takes
/// no other argument.
pub fn scale_from_args(default: RunScale) -> RunScale {
    parse_scale(std::env::args().skip(1), default)
}

/// [`scale_from_args`] over an explicit argument list (testable).
pub(crate) fn parse_scale(args: impl IntoIterator<Item = String>, default: RunScale) -> RunScale {
    let mut scale = default;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        assert!(
            flag == "--scale",
            "expected --scale full|quick, got `{flag}`"
        );
        let value = it.next().expect("flag --scale needs a value");
        scale = RunScale::from_flag(&value)
            .unwrap_or_else(|| panic!("--scale must be `full` or `quick`, got `{value}`"));
    }
    scale
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> RunScale {
        parse_scale(s.iter().map(|x| x.to_string()), RunScale::quick())
    }

    #[test]
    fn parses_flag_pairs() {
        assert_eq!(parse(&["--scale", "quick"]), RunScale::quick());
        assert_eq!(
            parse(&["--scale", "quick", "--scale", "full"]),
            RunScale::full()
        );
    }

    #[test]
    fn defaults_kick_in() {
        assert_eq!(parse(&[]), RunScale::quick());
    }

    #[test]
    fn scale_flag() {
        assert_eq!(parse(&["--scale", "full"]), RunScale::full());
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn dangling_flag_panics() {
        let _ = parse(&["--scale"]);
    }

    #[test]
    #[should_panic(expected = "must be `full` or `quick`")]
    fn unknown_scale_panics() {
        let _ = parse(&["--scale", "huge"]);
    }

    #[test]
    #[should_panic(expected = "expected --scale")]
    fn any_other_flag_panics() {
        let _ = parse(&["--theta", "0.6"]);
    }
}
