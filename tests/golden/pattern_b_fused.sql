SELECT e1, e2, e3
FROM (
  SELECT arrayFilter((x1, x2, x3) -> (x3 > 3 AND x2 > 2 AND x1 > 1), a1, a2, a3) AS e1, arrayFilter((x2, x1, x3) -> (x3 > 3 AND x2 > 2 AND x1 > 1), a2, a1, a3) AS e2, arrayFilter((x3, x1, x2) -> (x3 > 3 AND x2 > 2 AND x1 > 1), a3, a1, a2) AS e3
  FROM R
) AS t0
ARRAY JOIN e1, e2, e3
