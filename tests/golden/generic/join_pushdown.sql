SELECT age, dur, uid
FROM (
  SELECT age, uid
  FROM users
  WHERE age > 90
) AS t0
INNER JOIN events USING (uid)
