SELECT amount, oid, qty, score
FROM (
  SELECT amount, oid, qty, score
  FROM (
    SELECT amount, oid, qty, score
    FROM orders
    WHERE score > 990
  ) AS t0
  WHERE qty = 3
) AS t1
WHERE amount > 20
