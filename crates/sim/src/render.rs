//! ASCII rendering of the arena, for terminal demos and quick debugging.
//!
//! Gateways render as `#`, plain hosts as `o`, off hosts as `.`; multiple
//! hosts in one character cell escalate to the strongest glyph.

use pacds_geom::{Point2, Rect};

/// Renders hosts into a `cols x rows` character grid.
///
/// `gateways[v]` marks gateway hosts; `off[v]` (optional) marks
/// switched-off hosts.
pub fn render_ascii(
    bounds: Rect,
    positions: &[Point2],
    gateways: &[bool],
    off: Option<&[bool]>,
    cols: usize,
    rows: usize,
) -> String {
    assert!(cols >= 2 && rows >= 2, "grid too small to render");
    assert_eq!(positions.len(), gateways.len());
    let mut grid = vec![vec![' '; cols]; rows];
    for (v, p) in positions.iter().enumerate() {
        let cx = (((p.x - bounds.x0) / bounds.width()) * (cols as f64 - 1.0)).round() as usize;
        let cy = (((p.y - bounds.y0) / bounds.height()) * (rows as f64 - 1.0)).round() as usize;
        let cx = cx.min(cols - 1);
        // Flip y so north is up.
        let cy = rows - 1 - cy.min(rows - 1);
        let glyph = if off.is_some_and(|o| o[v]) {
            '.'
        } else if gateways[v] {
            '#'
        } else {
            'o'
        };
        let cell = &mut grid[cy][cx];
        *cell = strongest(*cell, glyph);
    }
    let mut out = String::with_capacity((cols + 3) * (rows + 2));
    out.push('+');
    out.extend(std::iter::repeat_n('-', cols));
    out.push_str("+\n");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push_str("|\n");
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', cols));
    out.push_str("+\n");
    out
}

/// Glyph precedence: gateway > host > off > empty.
fn strongest(a: char, b: char) -> char {
    let rank = |c: char| match c {
        '#' => 3,
        'o' => 2,
        '.' => 1,
        _ => 0,
    };
    if rank(a) >= rank(b) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_map_to_grid_corners() {
        let bounds = Rect::square(100.0);
        let pts = vec![
            Point2::new(0.0, 0.0),     // south-west -> bottom-left
            Point2::new(100.0, 100.0), // north-east -> top-right
        ];
        let s = render_ascii(bounds, &pts, &[false, true], None, 10, 5);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 7); // 5 rows + 2 border lines
        assert_eq!(&lines[1][10..11], "#"); // top-right interior
        assert_eq!(&lines[5][1..2], "o"); // bottom-left interior
    }

    #[test]
    fn gateway_glyph_wins_in_shared_cell() {
        let bounds = Rect::square(10.0);
        let pts = vec![Point2::new(5.0, 5.0), Point2::new(5.0, 5.0)];
        let s = render_ascii(bounds, &pts, &[false, true], None, 5, 5);
        assert!(s.contains('#'));
        assert!(!s.contains('o'));
    }

    #[test]
    fn off_hosts_render_dimmed() {
        let bounds = Rect::square(10.0);
        let pts = vec![Point2::new(2.0, 2.0)];
        let s = render_ascii(bounds, &pts, &[false], Some(&[true]), 8, 4);
        assert!(s.contains('.'));
    }

    #[test]
    #[should_panic]
    fn tiny_grid_rejected() {
        render_ascii(Rect::square(1.0), &[], &[], None, 1, 1);
    }
}
