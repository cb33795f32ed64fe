SELECT norm, sid
FROM (
  SELECT (0.5 * raw + -10.0) AS norm, raw, sid
  FROM (
    SELECT raw, sid
    FROM scores
    WHERE raw > 80.0
  ) AS t0
) AS t1
