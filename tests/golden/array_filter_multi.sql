SELECT t, uid, v
FROM (
  SELECT t, uid, v
  FROM (
    SELECT arrayFilter((x2, x1) -> (x2 != 0 AND x1 > 80), tags, vals) AS t, uid, arrayFilter((x1, x2) -> (x2 != 0 AND x1 > 80), vals, tags) AS v
    FROM events
  ) AS t0
  ARRAY JOIN v, t
) AS t1
