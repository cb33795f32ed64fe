SELECT r, sid
FROM (
  SELECT r, sid
  FROM (
    SELECT readings, sid
    FROM sensors
    WHERE readings <> ARRAY[]
  ) AS t0
  CROSS JOIN UNNEST(readings) AS u1 (r)
) AS t2
